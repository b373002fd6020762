//! The analytic FPGA resource model of Section V-C, calibrated against the
//! post-place-&-route numbers reported in Table VII.
//!
//! DSP usage follows the paper's closed form exactly
//! (`DSP = P_be · P_bu · 4 + P_head · (P_qk + P_sv)`); BRAM follows the
//! buffer inventory (`(BRAM_bfly + BRAM_weight) · P_be + key/query/shortcut
//! buffers`); LUT and register counts are linear fits through the two
//! reported design points (BE-40 and BE-120 on the VCU128).

use crate::config::{AcceleratorConfig, AcceleratorError, MemoryKind};

/// Estimated FPGA resource usage of a design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceUsage {
    /// Look-up tables.
    pub luts: u64,
    /// Registers / flip-flops.
    pub registers: u64,
    /// DSP48 blocks.
    pub dsps: u64,
    /// 36Kb BRAM blocks.
    pub brams: u64,
    /// HBM stacks used.
    pub hbm_stacks: u64,
}

/// BRAM blocks consumed per Butterfly Engine (butterfly buffer + weight buffer).
const BRAM_PER_BE: u64 = 8;
/// BRAM blocks for the shared key, query and shortcut buffers.
const BRAM_FIXED: u64 = 18;
/// Control/memory-system LUTs per Butterfly Engine.
const LUT_PER_BE: u64 = 2_850;
/// Datapath LUTs per adaptable Butterfly Unit.
const LUT_PER_BU: u64 = 1_400;
/// Platform overhead (HBM controller, interfaces) on HBM devices.
const LUT_FIXED_HBM: u64 = 20_609;
/// Platform overhead on DDR devices.
const LUT_FIXED_DDR: u64 = 5_000;
/// Register costs, split the same way.
const REG_PER_BE: i64 = 2_000;
const REG_PER_BU: i64 = 2_975;
const REG_FIXED_HBM: i64 = -19_150;
const REG_FIXED_DDR: i64 = 10_000;
/// Logic cost per attention-processor multiplier.
const LUT_PER_AP_MULT: u64 = 60;
const REG_PER_AP_MULT: u64 = 90;
const BRAM_PER_AE: u64 = 4;

/// Estimates the resource usage of a design point.
pub fn estimate(config: &AcceleratorConfig) -> ResourceUsage {
    let be = config.num_be as u64;
    let bu_total = (config.num_be * config.num_bu) as u64;
    let ap_mults = (config.num_heads_units * (config.pqk + config.psv)) as u64;
    let (lut_fixed, reg_fixed) = match config.memory {
        MemoryKind::Hbm => (LUT_FIXED_HBM, REG_FIXED_HBM),
        MemoryKind::Ddr4 => (LUT_FIXED_DDR, REG_FIXED_DDR),
    };
    let luts = lut_fixed + LUT_PER_BE * be + LUT_PER_BU * bu_total + LUT_PER_AP_MULT * ap_mults;
    let registers = (reg_fixed + REG_PER_BE * be as i64 + REG_PER_BU * bu_total as i64).max(40_000)
        as u64
        + REG_PER_AP_MULT * ap_mults;
    let dsps = config.num_multipliers() as u64;
    let brams = BRAM_FIXED + BRAM_PER_BE * be + BRAM_PER_AE * config.num_heads_units as u64;
    let hbm_stacks = match config.memory {
        MemoryKind::Hbm => 1,
        MemoryKind::Ddr4 => 0,
    };
    ResourceUsage { luts, registers, dsps, brams, hbm_stacks }
}

/// Checks that a design fits on its target device.
///
/// # Errors
///
/// Returns [`AcceleratorError::ResourceOverflow`] naming the first resource
/// that does not fit.
pub fn check_fits(config: &AcceleratorConfig) -> Result<ResourceUsage, AcceleratorError> {
    let usage = estimate(config);
    let device = &config.device;
    let checks: [(&'static str, u64, u64); 4] = [
        ("LUTs", usage.luts, device.luts),
        ("registers", usage.registers, device.registers),
        ("DSPs", usage.dsps, device.dsps),
        ("BRAMs", usage.brams, device.brams),
    ];
    for (resource, required, available) in checks {
        if required > available {
            return Err(AcceleratorError::ResourceOverflow { resource, required, available });
        }
    }
    Ok(usage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FpgaDevice;

    /// Per-resource utilisation of a device, as percentages.
    struct Utilization {
        /// LUT utilisation (%).
        luts: f64,
        /// Register utilisation (%).
        registers: f64,
        /// DSP utilisation (%).
        dsps: f64,
        /// BRAM utilisation (%).
        brams: f64,
    }

    /// Computes the utilisation of `usage` on `device`.
    fn utilization(usage: &ResourceUsage, device: &FpgaDevice) -> Utilization {
        Utilization {
            luts: 100.0 * usage.luts as f64 / device.luts as f64,
            registers: 100.0 * usage.registers as f64 / device.registers as f64,
            dsps: 100.0 * usage.dsps as f64 / device.dsps as f64,
            brams: 100.0 * usage.brams as f64 / device.brams as f64,
        }
    }

    fn within(actual: u64, expected: u64, tolerance: f64) -> bool {
        let diff = (actual as f64 - expected as f64).abs();
        diff / expected as f64 <= tolerance
    }

    #[test]
    fn be40_matches_table_vii() {
        let usage = estimate(&AcceleratorConfig::vcu128_be40());
        assert_eq!(usage.dsps, 640);
        assert!(within(usage.brams, 338, 0.02), "brams {}", usage.brams);
        assert!(within(usage.luts, 358_609, 0.02), "luts {}", usage.luts);
        assert!(within(usage.registers, 536_810, 0.02), "regs {}", usage.registers);
        assert_eq!(usage.hbm_stacks, 1);
    }

    #[test]
    fn be120_matches_table_vii() {
        let usage = estimate(&AcceleratorConfig::vcu128_be120());
        assert_eq!(usage.dsps, 1920);
        assert!(within(usage.brams, 978, 0.02), "brams {}", usage.brams);
        assert!(within(usage.luts, 1_034_610, 0.02), "luts {}", usage.luts);
        assert!(within(usage.registers, 1_648_695, 0.02), "regs {}", usage.registers);
    }

    #[test]
    fn dsp_equation_matches_section_v() {
        // DSP = Pbe*Pbu*4 + Phead*(Pqk+Psv)
        let config = AcceleratorConfig::vcu128_be40().with_attention_units(8, 16, 16);
        assert_eq!(estimate(&config).dsps, (40 * 4 * 4 + 8 * 32) as u64);
    }

    #[test]
    fn both_paper_designs_fit_the_vcu128() {
        assert!(check_fits(&AcceleratorConfig::vcu128_be40()).is_ok());
        assert!(check_fits(&AcceleratorConfig::vcu128_be120()).is_ok());
        assert!(check_fits(&AcceleratorConfig::zynq7045_edge()).is_ok());
    }

    #[test]
    fn oversized_designs_are_rejected() {
        let too_big = AcceleratorConfig::zynq7045_edge().with_bes(200);
        assert!(matches!(check_fits(&too_big), Err(AcceleratorError::ResourceOverflow { .. })));
    }

    #[test]
    fn utilization_matches_table_vii_percentages() {
        let config = AcceleratorConfig::vcu128_be120();
        let u = utilization(&estimate(&config), &config.device);
        // Table VII reports 79.3% LUTs, 63.2% registers and 48.5% BRAMs for
        // BE-120. (The table's DSP row reports 2,880 DSPs, i.e. 1.5 DSPs per
        // multiplier; the analytic model of Section V-C counts multipliers
        // directly, giving 1,920 ≈ 21%.)
        assert!((u.luts - 79.3).abs() < 3.0, "lut util {}", u.luts);
        assert!((u.registers - 63.2).abs() < 3.0, "reg util {}", u.registers);
        assert!((u.dsps - 21.3).abs() < 2.0, "dsp util {}", u.dsps);
        assert!((u.brams - 48.5).abs() < 3.0, "bram util {}", u.brams);
    }
}
