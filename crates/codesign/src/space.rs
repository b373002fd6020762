//! The joint algorithm/hardware design space.

use fab_accel::{AcceleratorConfig, FpgaDevice};
use fab_nn::ModelConfig;

/// One candidate point: a FABNet configuration paired with an accelerator
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// FABNet hyper-parameters.
    pub model: ModelConfig,
    /// Accelerator parallelism and memory configuration.
    pub hardware: AcceleratorConfig,
}

/// The grid of values explored by the co-design search.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// Hidden sizes `D_hid`.
    pub hidden: Vec<usize>,
    /// FFN expansion ratios `R_ffn`.
    pub ffn_ratio: Vec<usize>,
    /// Total block counts `N_total`.
    pub num_layers: Vec<usize>,
    /// ABfly block counts `N_ABfly`.
    pub num_abfly: Vec<usize>,
    /// Butterfly Engine counts `P_be`.
    pub num_be: Vec<usize>,
    /// Butterfly Units per engine `P_bu`.
    pub num_bu: Vec<usize>,
    /// QK-unit multipliers `P_qk` (0 disables the Attention Processor).
    pub pqk: Vec<usize>,
    /// SV-unit multipliers `P_sv`.
    pub psv: Vec<usize>,
    /// Target FPGA device.
    pub device: FpgaDevice,
    /// Task interface copied onto every candidate model configuration.
    pub vocab_size: usize,
    /// Maximum sequence length of the task.
    pub max_seq: usize,
    /// Number of output classes of the task.
    pub num_classes: usize,
}

impl DesignSpace {
    /// The Section VI-C search space for the LRA tasks on a VCU128:
    /// `D_hid ∈ {64..1024}`, `R_ffn ∈ {1,2,4}`, `N_ABfly ∈ {0,1}`,
    /// `N_total ∈ {1,2}`, parallelism from `{4..128}` (plus 0 for the
    /// attention units).
    pub fn lra_vcu128() -> Self {
        Self {
            hidden: vec![64, 128, 256, 512, 1024],
            ffn_ratio: vec![1, 2, 4],
            num_layers: vec![1, 2],
            num_abfly: vec![0, 1],
            num_be: vec![4, 8, 16, 32, 64, 128],
            num_bu: vec![4],
            pqk: vec![0, 4, 8, 16, 32, 64, 128],
            psv: vec![0, 4, 8, 16, 32, 64, 128],
            device: FpgaDevice::vcu128(),
            vocab_size: 256,
            max_seq: 4096,
            num_classes: 10,
        }
    }

    /// A drastically reduced space for unit tests and doc examples.
    pub fn tiny_for_tests() -> Self {
        Self {
            hidden: vec![64, 128],
            ffn_ratio: vec![2],
            num_layers: vec![1, 2],
            num_abfly: vec![0, 1],
            num_be: vec![16, 64],
            num_bu: vec![4],
            pqk: vec![0, 16],
            psv: vec![0, 16],
            device: FpgaDevice::vcu128(),
            vocab_size: 64,
            max_seq: 1024,
            num_classes: 2,
        }
    }

    /// Number of raw grid points before feasibility filtering.
    pub fn cardinality(&self) -> usize {
        self.hidden.len()
            * self.ffn_ratio.len()
            * self.num_layers.len()
            * self.num_abfly.len()
            * self.num_be.len()
            * self.num_bu.len()
            * self.pqk.len()
            * self.psv.len()
    }

    /// Enumerates every *consistent* design point in the grid.
    ///
    /// Inconsistent combinations are skipped rather than returned as errors:
    /// `N_ABfly > N_total`, attention units present without ABfly blocks (a
    /// waste of DSPs), ABfly blocks present without attention units (cannot
    /// execute), and `P_qk`/`P_sv` where exactly one of the two is zero.
    pub fn enumerate(&self) -> Vec<DesignPoint> {
        let mut points = Vec::new();
        for &hidden in &self.hidden {
            for &ffn_ratio in &self.ffn_ratio {
                for &num_layers in &self.num_layers {
                    for &num_abfly in &self.num_abfly {
                        if num_abfly > num_layers {
                            continue;
                        }
                        for &num_be in &self.num_be {
                            for &num_bu in &self.num_bu {
                                for &pqk in &self.pqk {
                                    for &psv in &self.psv {
                                        if (pqk == 0) != (psv == 0) {
                                            continue;
                                        }
                                        let has_ap = pqk > 0;
                                        if has_ap != (num_abfly > 0) {
                                            continue;
                                        }
                                        let model = ModelConfig {
                                            hidden,
                                            ffn_ratio,
                                            num_layers,
                                            num_abfly,
                                            num_heads: (hidden / 64).max(1),
                                            vocab_size: self.vocab_size,
                                            max_seq: self.max_seq,
                                            num_classes: self.num_classes,
                                        };
                                        let mut hardware = AcceleratorConfig::vcu128_fabnet();
                                        hardware.num_be = num_be;
                                        hardware.num_bu = num_bu;
                                        hardware.device = self.device.clone();
                                        if has_ap {
                                            hardware = hardware.with_attention_units(
                                                model.num_heads,
                                                pqk,
                                                psv,
                                            );
                                        }
                                        points.push(DesignPoint { model, hardware });
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_space_has_expected_cardinality() {
        let space = DesignSpace::lra_vcu128();
        // 5 * 3 * 2 * 2 * 6 * 1 * 7 * 7 raw combinations.
        assert_eq!(space.cardinality(), 5 * 3 * 2 * 2 * 6 * 7 * 7);
    }

    #[test]
    fn enumeration_filters_inconsistent_points() {
        let space = DesignSpace::tiny_for_tests();
        let points = space.enumerate();
        assert!(!points.is_empty());
        for p in &points {
            assert!(p.model.num_abfly <= p.model.num_layers);
            assert_eq!(p.hardware.supports_attention(), p.model.num_abfly > 0);
            assert!(p.model.validate().is_ok());
        }
        assert!(points.len() < space.cardinality());
    }

    #[test]
    fn enumeration_contains_the_papers_chosen_point() {
        // Section VI-C selects <Pbe, Pbu, Pqk, Psv> = <64, 4, 0, 0> with a
        // pure-FBfly FABNet.
        let space = DesignSpace::lra_vcu128();
        let points = space.enumerate();
        assert!(points.iter().any(|p| {
            p.hardware.num_be == 64
                && p.hardware.num_bu == 4
                && p.hardware.pqk == 0
                && p.hardware.psv == 0
                && p.model.num_abfly == 0
        }));
    }
}
