//! Hardware configuration: parallelism parameters, clock, memory system and
//! target FPGA devices.

use std::error::Error;
use std::fmt;

/// Errors produced when validating an accelerator configuration against a
/// workload or device.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AcceleratorError {
    /// The configuration has no attention units but the workload contains
    /// attention layers.
    NoAttentionUnits,
    /// A parallelism parameter is zero where it must be positive.
    ZeroParallelism {
        /// The offending parameter name.
        parameter: &'static str,
    },
    /// The design does not fit on the target FPGA.
    ResourceOverflow {
        /// Which resource overflowed.
        resource: &'static str,
        /// Amount required by the design.
        required: u64,
        /// Amount available on the device.
        available: u64,
    },
}

impl fmt::Display for AcceleratorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcceleratorError::NoAttentionUnits => {
                write!(f, "workload contains attention layers but the design has no QK/SV units")
            }
            AcceleratorError::ZeroParallelism { parameter } => {
                write!(f, "parallelism parameter {parameter} must be positive")
            }
            AcceleratorError::ResourceOverflow { resource, required, available } => {
                write!(f, "design needs {required} {resource} but the device has {available}")
            }
        }
    }
}

impl Error for AcceleratorError {}

/// Off-chip memory technology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryKind {
    /// High-bandwidth memory (VCU128, server scenario).
    Hbm,
    /// DDR4 (Zynq 7045, edge scenario).
    Ddr4,
}

impl MemoryKind {
    /// Theoretical peak bandwidth in GB/s of a single stack/channel as used
    /// in the paper (one HBM stack = 450 GB/s, edge DDR4 ≈ 19.2 GB/s).
    pub fn peak_bandwidth_gbps(self) -> f64 {
        match self {
            MemoryKind::Hbm => 450.0,
            MemoryKind::Ddr4 => 19.2,
        }
    }
}

/// An FPGA device with its available resources (Table VII "Available" row).
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaDevice {
    /// Device name.
    pub name: String,
    /// Available look-up tables.
    pub luts: u64,
    /// Available flip-flops / registers.
    pub registers: u64,
    /// Available DSP48 blocks.
    pub dsps: u64,
    /// Available 36Kb BRAM blocks.
    pub brams: u64,
    /// Number of HBM stacks (0 for DDR devices).
    pub hbm_stacks: u64,
}

impl FpgaDevice {
    /// Xilinx VCU128 (cloud/server scenario).
    pub fn vcu128() -> Self {
        Self {
            name: "Xilinx VCU128".to_string(),
            luts: 1_303_680,
            registers: 2_607_360,
            dsps: 9_024,
            brams: 2_016,
            hbm_stacks: 2,
        }
    }

    /// Xilinx Zynq 7045 (edge/mobile scenario).
    pub fn zynq7045() -> Self {
        Self {
            name: "Xilinx Zynq 7045".to_string(),
            luts: 218_600,
            registers: 437_200,
            dsps: 900,
            brams: 545,
            hbm_stacks: 0,
        }
    }
}

/// The accelerator's design parameters — the hardware half of the paper's
/// joint design space (Section V-C).
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorConfig {
    /// Number of Butterfly Engines in the Butterfly Processor (`P_BE`).
    pub num_be: usize,
    /// Number of adaptable Butterfly Units per BE (`P_BU`); the paper deploys 4.
    pub num_bu: usize,
    /// Number of Attention Engines (`P_head`).
    pub num_heads_units: usize,
    /// Multipliers in each QK unit (`P_qk`); 0 disables the Attention Processor.
    pub pqk: usize,
    /// Multipliers in each SV unit (`P_sv`); 0 disables the Attention Processor.
    pub psv: usize,
    /// Clock frequency in MHz (all paper designs run at 200 MHz).
    pub clock_mhz: f64,
    /// Off-chip memory technology.
    pub memory: MemoryKind,
    /// Off-chip bandwidth in GB/s actually provisioned for the design.
    pub bandwidth_gbps: f64,
    /// Numeric precision in bytes (16-bit half precision = 2).
    pub precision_bytes: usize,
    /// Depth of the butterfly/query/key buffers (the paper uses 1024).
    pub buffer_depth: usize,
    /// Enable the fine-grained BP↔AP pipelining of Section V-B.
    pub fine_grained_pipelining: bool,
    /// Target FPGA device.
    pub device: FpgaDevice,
}

impl AcceleratorConfig {
    /// The server-scale design used against GPUs in Section VI-E: 120 BEs on
    /// a VCU128 (1920 multipliers) with HBM.
    pub fn vcu128_be120() -> Self {
        Self {
            num_be: 120,
            num_bu: 4,
            num_heads_units: 0,
            pqk: 0,
            psv: 0,
            clock_mhz: 200.0,
            memory: MemoryKind::Hbm,
            bandwidth_gbps: 450.0,
            precision_bytes: 2,
            buffer_depth: 1024,
            fine_grained_pipelining: true,
            device: FpgaDevice::vcu128(),
        }
    }

    /// The co-design output for the LRA tasks (Section VI-C):
    /// `⟨P_be, P_bu, P_qk, P_sv⟩ = ⟨64, 4, 0, 0⟩` on a VCU128.
    pub fn vcu128_fabnet() -> Self {
        Self { num_be: 64, ..Self::vcu128_be120() }
    }

    /// The SOTA-comparison design of Section VI-F: 40 BEs (640 DSPs) on a
    /// VCU128, matching the 128-multiplier / 1 GHz ASIC budget at 200 MHz.
    pub fn vcu128_be40() -> Self {
        Self { num_be: 40, ..Self::vcu128_be120() }
    }

    /// The edge-scale design of Section VI-E: 512 multipliers on a Zynq 7045
    /// with DDR4, organised as 8 wide Butterfly Engines (16 BUs each) to keep
    /// the per-engine control overhead within the smaller device.
    pub fn zynq7045_edge() -> Self {
        Self {
            num_be: 8,
            num_bu: 16,
            num_heads_units: 0,
            pqk: 0,
            psv: 0,
            clock_mhz: 200.0,
            memory: MemoryKind::Ddr4,
            bandwidth_gbps: 19.2,
            precision_bytes: 2,
            buffer_depth: 1024,
            fine_grained_pipelining: true,
            device: FpgaDevice::zynq7045(),
        }
    }

    /// A design with an Attention Processor, for FABNet configurations that
    /// keep `N_ABfly > 0` ABfly blocks.
    pub fn with_attention_units(mut self, heads: usize, pqk: usize, psv: usize) -> Self {
        self.num_heads_units = heads;
        self.pqk = pqk;
        self.psv = psv;
        self
    }

    /// Returns a copy with a different number of Butterfly Engines.
    pub fn with_bes(mut self, num_be: usize) -> Self {
        self.num_be = num_be;
        self
    }

    /// Returns a copy with a different off-chip bandwidth (GB/s).
    pub fn with_bandwidth(mut self, gbps: f64) -> Self {
        self.bandwidth_gbps = gbps;
        self
    }

    /// Returns a copy with naive (non-pipelined) BP/AP scheduling, used by the
    /// pipelining ablation.
    pub fn without_fine_grained_pipelining(mut self) -> Self {
        self.fine_grained_pipelining = false;
        self
    }

    /// Total number of hardware multipliers: `P_be · P_bu · 4` in the BP plus
    /// `P_head · (P_qk + P_sv)` in the AP (the DSP equation of Section V-C).
    pub fn num_multipliers(&self) -> usize {
        self.num_be * self.num_bu * 4 + self.num_heads_units * (self.pqk + self.psv)
    }

    /// Peak throughput in GOP/s at the configured clock (each multiplier
    /// performs one multiply-accumulate, i.e. 2 ops, per cycle; the paper's
    /// "128 GOPS" normalisation counts 640 DSPs × 200 MHz).
    pub fn peak_gops(&self) -> f64 {
        self.num_multipliers() as f64 * self.clock_mhz * 1e6 / 1e9
    }

    /// Bytes transferable from off-chip memory per clock cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bandwidth_gbps * 1e9 / (self.clock_mhz * 1e6)
    }

    /// Validates the parallelism parameters.
    ///
    /// # Errors
    ///
    /// Returns [`AcceleratorError::ZeroParallelism`] when `num_be` or
    /// `num_bu` is zero.
    pub fn validate(&self) -> Result<(), AcceleratorError> {
        if self.num_be == 0 {
            return Err(AcceleratorError::ZeroParallelism { parameter: "num_be" });
        }
        if self.num_bu == 0 {
            return Err(AcceleratorError::ZeroParallelism { parameter: "num_bu" });
        }
        Ok(())
    }

    /// Whether the design can execute attention layers (has QK and SV units).
    pub fn supports_attention(&self) -> bool {
        self.num_heads_units > 0 && self.pqk > 0 && self.psv > 0
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self::vcu128_fabnet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiplier_counts_match_paper_designs() {
        assert_eq!(AcceleratorConfig::vcu128_be120().num_multipliers(), 1920);
        assert_eq!(AcceleratorConfig::vcu128_be40().num_multipliers(), 640);
        assert_eq!(AcceleratorConfig::zynq7045_edge().num_multipliers(), 512);
    }

    #[test]
    fn be40_matches_ascis_normalised_throughput() {
        // Section VI-F: 640 DSPs x 200 MHz = 128 GOPS, the same budget as a
        // 128-multiplier ASIC at 1 GHz.
        let c = AcceleratorConfig::vcu128_be40();
        assert!((c.peak_gops() - 128.0).abs() < 1e-6);
    }

    #[test]
    fn attention_support_requires_qk_and_sv() {
        let c = AcceleratorConfig::vcu128_fabnet();
        assert!(!c.supports_attention());
        let c = c.with_attention_units(4, 8, 8);
        assert!(c.supports_attention());
        assert_eq!(c.num_multipliers(), 64 * 4 * 4 + 4 * 16);
    }

    #[test]
    fn validation_rejects_zero_parallelism() {
        let mut c = AcceleratorConfig::vcu128_fabnet();
        c.num_be = 0;
        assert!(matches!(c.validate(), Err(AcceleratorError::ZeroParallelism { .. })));
    }

    #[test]
    fn bytes_per_cycle_follows_bandwidth() {
        let c = AcceleratorConfig::vcu128_fabnet().with_bandwidth(100.0);
        assert!((c.bytes_per_cycle() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn device_presets_have_expected_resources() {
        let v = FpgaDevice::vcu128();
        assert_eq!(v.dsps, 9024);
        assert_eq!(v.brams, 2016);
        let z = FpgaDevice::zynq7045();
        assert_eq!(z.dsps, 900);
    }
}
