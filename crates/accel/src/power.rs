//! The power model of the accelerator, calibrated against the Vivado XPE
//! breakdown reported in Table VI (BE-40 and BE-120 designs on the VCU128).
//!
//! Each component (clocking, logic & signal, DSP, memory, static) is a linear
//! function of the number of Butterfly Engines fitted through the two
//! reported design points; edge designs on the Zynq 7045 use a smaller memory
//! and static baseline because they have no HBM stacks.

use crate::config::{AcceleratorConfig, MemoryKind};

/// Power breakdown in watts (Table VI rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// Clock distribution.
    pub clocking: f64,
    /// Logic and signal switching.
    pub logic_signal: f64,
    /// DSP blocks.
    pub dsp: f64,
    /// BRAM + HBM (or DDR interface).
    pub memory: f64,
    /// Static (leakage) power.
    pub static_power: f64,
}

impl PowerBreakdown {
    /// Dynamic power (everything except static).
    pub fn dynamic(&self) -> f64 {
        self.clocking + self.logic_signal + self.dsp + self.memory
    }

    /// Total power.
    pub fn total(&self) -> f64 {
        self.dynamic() + self.static_power
    }

    /// Fraction of total power that is dynamic.
    pub fn dynamic_fraction(&self) -> f64 {
        self.dynamic() / self.total()
    }
}

fn lerp_by_be(be: f64, at40: f64, at120: f64) -> f64 {
    at40 + (at120 - at40) / 80.0 * (be - 40.0)
}

/// Estimates the power breakdown of a design point.
pub fn estimate(config: &AcceleratorConfig) -> PowerBreakdown {
    let be = config.num_be as f64;
    let ap_mults = (config.num_heads_units * (config.pqk + config.psv)) as f64;
    match config.memory {
        MemoryKind::Hbm => PowerBreakdown {
            clocking: lerp_by_be(be, 2.668, 6.882),
            logic_signal: lerp_by_be(be, 2.381, 7.732) + 0.002 * ap_mults,
            dsp: lerp_by_be(be, 0.338, 1.437) + 0.0005 * ap_mults,
            memory: lerp_by_be(be, 5.325, 6.142),
            static_power: lerp_by_be(be, 3.368, 3.665),
        },
        // Edge designs: no HBM, smaller die, lower static power. Calibrated so
        // the Zynq 7045 512-multiplier design lands in the single-digit-watt
        // range typical for that device class.
        MemoryKind::Ddr4 => PowerBreakdown {
            clocking: 0.4 + 0.02 * be,
            logic_signal: 0.5 + 0.03 * be + 0.002 * ap_mults,
            dsp: 0.05 + 0.004 * be,
            memory: 1.2 + 0.01 * be,
            static_power: 0.25 + 0.002 * be,
        },
    }
}

/// Energy efficiency in predictions per joule, given a latency in seconds.
pub fn predictions_per_joule(config: &AcceleratorConfig, latency_seconds: f64) -> f64 {
    let watts = estimate(config).total();
    1.0 / (latency_seconds * watts)
}

/// Energy efficiency in GOP/s per watt, given achieved GOP/s.
pub fn gops_per_watt(config: &AcceleratorConfig, achieved_gops: f64) -> f64 {
    achieved_gops / estimate(config).total()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn be40_breakdown_matches_table_vi() {
        let p = estimate(&AcceleratorConfig::vcu128_be40());
        assert!(close(p.clocking, 2.668, 0.01));
        assert!(close(p.logic_signal, 2.381, 0.01));
        assert!(close(p.dsp, 0.338, 0.01));
        assert!(close(p.memory, 5.325, 0.01));
        assert!(close(p.static_power, 3.368, 0.01));
        // Sum of the Table VI rows.
        assert!(close(p.total(), 14.08, 0.05), "total {}", p.total());
    }

    #[test]
    fn be120_breakdown_matches_table_vi() {
        let p = estimate(&AcceleratorConfig::vcu128_be120());
        assert!(close(p.clocking, 6.882, 0.01));
        assert!(close(p.logic_signal, 7.732, 0.01));
        assert!(close(p.dsp, 1.437, 0.01));
        assert!(close(p.memory, 6.142, 0.01));
        assert!(close(p.static_power, 3.665, 0.01));
    }

    #[test]
    fn dynamic_power_dominates() {
        // Table VI: dynamic power accounts for more than 70% of the total in
        // both designs.
        for config in [AcceleratorConfig::vcu128_be40(), AcceleratorConfig::vcu128_be120()] {
            let p = estimate(&config);
            assert!(p.dynamic_fraction() > 0.7, "{}", p.dynamic_fraction());
        }
    }

    #[test]
    fn edge_design_uses_single_digit_watts() {
        let p = estimate(&AcceleratorConfig::zynq7045_edge());
        assert!(p.total() > 1.0 && p.total() < 10.0, "total {}", p.total());
    }

    #[test]
    fn power_grows_with_design_size() {
        let small = estimate(&AcceleratorConfig::vcu128_be40());
        let big = estimate(&AcceleratorConfig::vcu128_be120());
        assert!(big.total() > small.total());
        assert!(big.clocking > small.clocking);
        assert!(big.dsp > small.dsp);
    }

    #[test]
    fn efficiency_metrics_are_positive() {
        let config = AcceleratorConfig::vcu128_be40();
        assert!(predictions_per_joule(&config, 0.0024) > 0.0);
        assert!(gops_per_watt(&config, 100.0) > 0.0);
    }
}
