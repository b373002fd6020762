//! Analytic roofline models of the CPU and GPU platforms used by the paper's
//! Section VI-E comparison and Section II-C latency breakdown.
//!
//! Each device is described by its effective peak throughput, memory
//! bandwidth, board power and a per-kernel launch/framework overhead. A
//! layer's latency is `max(compute, memory) + overhead` — the standard
//! roofline plus the fixed per-op cost that dominates small butterfly/FFT
//! kernels on GPUs (which is why the FPGA wins at short sequence lengths in
//! Fig. 20 despite its much lower raw peak).

use fab_accel::workload::LayerSchedule;
use fab_nn::flops::FlopsBreakdown;
use fab_nn::{ModelConfig, ModelKind};

/// The platforms of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Nvidia V100 (server GPU).
    V100,
    /// Nvidia TITAN Xp (workstation GPU).
    TitanXp,
    /// Nvidia Jetson Nano (edge GPU).
    JetsonNano,
    /// Raspberry Pi 4 (edge CPU).
    RaspberryPi4,
    /// Intel Xeon Gold 6154 (server CPU).
    XeonGold6154,
}

/// Roofline description of one platform.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceModel {
    /// Which device this models.
    pub kind: DeviceKind,
    /// Display name.
    pub name: String,
    /// Effective sustained throughput on transformer-style kernels (GFLOP/s).
    pub effective_gflops: f64,
    /// Sustained memory bandwidth (GB/s).
    pub bandwidth_gbps: f64,
    /// Board/SoC power when running the workload (W).
    pub power_w: f64,
    /// Fixed per-operation overhead (kernel launch, framework dispatch), in seconds.
    pub per_op_overhead_s: f64,
    /// Relative efficiency of the (unfused) attention score/value computation
    /// compared to dense GEMM on this device: softmax, transposes and the
    /// small head dimension keep attention far from GEMM throughput.
    pub attention_efficiency: f64,
}

impl DeviceModel {
    /// Builds the model for one platform.
    ///
    /// Effective throughputs are sustained numbers for transformer inference
    /// (well below datasheet peaks), chosen so the relative results of
    /// Fig. 3 and Fig. 20 are reproduced; see EXPERIMENTS.md for calibration.
    pub fn new(kind: DeviceKind) -> Self {
        match kind {
            DeviceKind::V100 => Self {
                kind,
                name: "Nvidia V100".into(),
                effective_gflops: 18_000.0,
                bandwidth_gbps: 700.0,
                power_w: 250.0,
                per_op_overhead_s: 18e-6,
                attention_efficiency: 0.15,
            },
            DeviceKind::TitanXp => Self {
                kind,
                name: "Nvidia TITAN Xp".into(),
                effective_gflops: 9_000.0,
                bandwidth_gbps: 400.0,
                power_w: 220.0,
                per_op_overhead_s: 18e-6,
                attention_efficiency: 0.15,
            },
            DeviceKind::JetsonNano => Self {
                kind,
                name: "Nvidia Jetson Nano".into(),
                effective_gflops: 230.0,
                bandwidth_gbps: 20.0,
                power_w: 10.0,
                per_op_overhead_s: 60e-6,
                attention_efficiency: 0.15,
            },
            DeviceKind::RaspberryPi4 => Self {
                kind,
                name: "Raspberry Pi 4".into(),
                effective_gflops: 6.0,
                bandwidth_gbps: 3.5,
                power_w: 5.0,
                per_op_overhead_s: 15e-6,
                attention_efficiency: 0.18,
            },
            DeviceKind::XeonGold6154 => Self {
                kind,
                name: "Intel Xeon Gold 6154".into(),
                effective_gflops: 900.0,
                bandwidth_gbps: 100.0,
                power_w: 200.0,
                per_op_overhead_s: 10e-6,
                attention_efficiency: 0.18,
            },
        }
    }

    /// Latency of a single operation given its FLOPs and memory traffic.
    pub fn op_latency_s(&self, flops: u64, bytes: u64) -> f64 {
        let compute = flops as f64 / (self.effective_gflops * 1e9);
        let memory = bytes as f64 / (self.bandwidth_gbps * 1e9);
        compute.max(memory) + self.per_op_overhead_s
    }

    /// Latency of an attention score/value operation, which runs at
    /// [`DeviceModel::attention_efficiency`] of the dense-GEMM throughput.
    pub fn attention_latency_s(&self, flops: u64, bytes: u64) -> f64 {
        let compute = flops as f64 / (self.effective_gflops * self.attention_efficiency * 1e9);
        let memory = bytes as f64 / (self.bandwidth_gbps * 1e9);
        compute.max(memory) + self.per_op_overhead_s
    }

    /// End-to-end latency of a model forward pass described by `schedule`.
    pub fn simulate(&self, schedule: &LayerSchedule, precision_bytes: usize) -> f64 {
        schedule
            .ops()
            .map(|op| {
                let bytes = op.bytes_in(precision_bytes) + op.bytes_out(precision_bytes);
                if op.is_attention() {
                    self.attention_latency_s(op.flops(), bytes)
                } else {
                    self.op_latency_s(op.flops(), bytes)
                }
            })
            .sum()
    }

    /// Energy per prediction in joules for a given latency.
    pub fn energy_per_prediction(&self, latency_s: f64) -> f64 {
        latency_s * self.power_w
    }

    /// Achieved GOP/s per watt for a workload with `flops` operations.
    pub fn gops_per_watt(&self, flops: u64, latency_s: f64) -> f64 {
        flops as f64 / latency_s / 1e9 / self.power_w
    }
}

/// Execution-time breakdown of a Transformer forward pass on a device
/// (Fig. 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    /// Seconds spent in attention (score/value) computation.
    pub attention_s: f64,
    /// Seconds spent in linear layers (projections + FFN).
    pub linear_s: f64,
    /// Seconds spent in everything else (layer norm, residuals, transposes, IO).
    pub other_s: f64,
}

impl LatencyBreakdown {
    /// Total seconds.
    pub fn total_s(&self) -> f64 {
        self.attention_s + self.linear_s + self.other_s
    }

    /// Percentage of time in attention.
    pub fn attention_pct(&self) -> f64 {
        100.0 * self.attention_s / self.total_s()
    }

    /// Percentage of time in linear layers.
    pub fn linear_pct(&self) -> f64 {
        100.0 * self.linear_s / self.total_s()
    }
}

/// Computes the Fig. 3 execution-time breakdown of a Transformer with
/// configuration `config` and sequence length `seq` on `device`.
///
/// Compute-bound components scale with their FLOPs; the "other" category adds
/// the per-op overheads and the activation traffic of the norm/residual ops.
pub fn latency_breakdown(
    device: &DeviceModel,
    config: &ModelConfig,
    seq: usize,
) -> LatencyBreakdown {
    let flops: FlopsBreakdown = fab_nn::flops::flops_breakdown(config, ModelKind::Transformer, seq);
    let schedule = LayerSchedule::from_model(config, ModelKind::Transformer, seq);
    // Traffic estimates: attention reads/writes Q, K, V and the score matrix;
    // linear layers read weights and activations.
    let bytes_per_elem = 2u64;
    let attn_bytes = config.num_layers as u64
        * (4 * (seq * config.hidden) as u64 + 2 * (seq * seq) as u64)
        * bytes_per_elem;
    let linear_bytes = config.num_layers as u64
        * ((4 * config.hidden * config.hidden
            + 2 * config.hidden * config.hidden * config.ffn_ratio
            + 6 * seq * config.hidden) as u64)
        * bytes_per_elem;
    let other_bytes = config.num_layers as u64 * (4 * seq * config.hidden) as u64 * bytes_per_elem;
    let ops_per_layer = 9.0;
    let overhead = config.num_layers as f64 * ops_per_layer * device.per_op_overhead_s;
    let _ = schedule;
    LatencyBreakdown {
        attention_s: device.attention_latency_s(flops.attention_core, attn_bytes),
        linear_s: device.op_latency_s(flops.linear, linear_bytes),
        other_s: device.op_latency_s(flops.other, other_bytes) + overhead,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_layers_dominate_short_sequences_on_gpu_and_cpu() {
        // Fig. 3: at sequence length 256 linear layers take the majority of
        // the time on both the V100 and the Xeon.
        let config = ModelConfig::bert_large();
        for kind in [DeviceKind::V100, DeviceKind::XeonGold6154] {
            let b = latency_breakdown(&DeviceModel::new(kind), &config, 256);
            assert!(b.linear_pct() > 50.0, "{kind:?}: linear {}%", b.linear_pct());
        }
    }

    #[test]
    fn attention_becomes_dominant_at_long_sequences() {
        // Fig. 3: by sequence length 2048 attention dominates.
        let config = ModelConfig::bert_large();
        for kind in [DeviceKind::V100, DeviceKind::XeonGold6154] {
            let b = latency_breakdown(&DeviceModel::new(kind), &config, 2048);
            assert!(
                b.attention_pct() > b.linear_pct(),
                "{kind:?}: attention {}% vs linear {}%",
                b.attention_pct(),
                b.linear_pct()
            );
        }
    }

    #[test]
    fn server_gpus_are_faster_than_edge_devices() {
        let config = ModelConfig::fabnet_base();
        let schedule = LayerSchedule::from_model(&config, ModelKind::FabNet, 512);
        let v100 = DeviceModel::new(DeviceKind::V100).simulate(&schedule, 2);
        let nano = DeviceModel::new(DeviceKind::JetsonNano).simulate(&schedule, 2);
        let rpi = DeviceModel::new(DeviceKind::RaspberryPi4).simulate(&schedule, 2);
        assert!(v100 < nano && nano < rpi);
    }

    #[test]
    fn gpu_latency_has_an_overhead_floor_at_short_sequences() {
        let config = ModelConfig::fabnet_base();
        let short = LayerSchedule::from_model(&config, ModelKind::FabNet, 128);
        let v100 = DeviceModel::new(DeviceKind::V100);
        let latency = v100.simulate(&short, 2);
        let num_ops = short.ops().count() as f64;
        assert!(latency >= num_ops * v100.per_op_overhead_s);
    }

    #[test]
    fn energy_metrics_are_consistent() {
        let d = DeviceModel::new(DeviceKind::JetsonNano);
        let e = d.energy_per_prediction(0.01);
        assert!((e - 0.1).abs() < 1e-9);
        assert!(d.gops_per_watt(1_000_000_000, 0.01) > 0.0);
    }
}
