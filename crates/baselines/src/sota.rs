//! The state-of-the-art attention accelerators of Table V, under the paper's
//! normalisation (every ASIC scaled to 128 multipliers at 1 GHz; FPGA designs
//! reported as implemented), together with helpers to assemble the full
//! comparison table including this work.

/// Implementation technology of a published accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technology {
    /// ASIC, with the process node in nanometres.
    Asic(u32),
    /// FPGA, with the process node in nanometres.
    Fpga(u32),
}

/// One row of Table V.
#[derive(Debug, Clone, PartialEq)]
pub struct SotaAccelerator {
    /// Accelerator name.
    pub name: &'static str,
    /// Publication venue and year, for reference.
    pub venue: &'static str,
    /// Implementation technology.
    pub technology: Technology,
    /// Normalised end-to-end latency on the one-layer vanilla Transformer /
    /// LRA-Image workload, in milliseconds.
    pub latency_ms: f64,
    /// Power consumption in watts (after the paper's linear power scaling).
    pub power_w: f64,
}

impl SotaAccelerator {
    /// Throughput in predictions per second.
    pub fn throughput_pred_per_s(&self) -> f64 {
        1e3 / self.latency_ms
    }

    /// Energy efficiency in predictions per joule.
    pub fn energy_eff_pred_per_j(&self) -> f64 {
        self.throughput_pred_per_s() / self.power_w
    }
}

/// The seven published accelerators of Table V with their normalised numbers.
pub fn sota_catalogue() -> Vec<SotaAccelerator> {
    use Technology::*;
    vec![
        SotaAccelerator {
            name: "A3",
            venue: "HPCA'20",
            technology: Asic(40),
            latency_ms: 56.0,
            power_w: 1.217,
        },
        SotaAccelerator {
            name: "SpAtten",
            venue: "HPCA'21",
            technology: Asic(40),
            latency_ms: 48.8,
            power_w: 1.060,
        },
        SotaAccelerator {
            name: "Sanger",
            venue: "MICRO'21",
            technology: Asic(55),
            latency_ms: 45.2,
            power_w: 0.801,
        },
        SotaAccelerator {
            name: "Energon",
            venue: "TCAD'21",
            technology: Asic(45),
            latency_ms: 44.2,
            power_w: 2.633,
        },
        SotaAccelerator {
            name: "ELSA",
            venue: "ISCA'21",
            technology: Asic(40),
            latency_ms: 34.7,
            power_w: 0.976,
        },
        SotaAccelerator {
            name: "DOTA",
            venue: "ASPLOS'22",
            technology: Asic(22),
            latency_ms: 34.1,
            power_w: 0.858,
        },
        SotaAccelerator {
            name: "FTRANS",
            venue: "ISLPED'20",
            technology: Fpga(16),
            latency_ms: 61.6,
            power_w: 25.130,
        },
    ]
}

/// The paper's reported numbers for its own design (640 DSPs on a VCU128),
/// used as the reference when checking reproduced results.
pub fn paper_this_work() -> SotaAccelerator {
    SotaAccelerator {
        name: "Butterfly accelerator (paper)",
        venue: "MICRO'22",
        technology: Technology::Fpga(16),
        latency_ms: 2.4,
        power_w: 11.355,
    }
}

/// A row of the assembled comparison (Table V) including derived metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonRow {
    /// Accelerator name.
    pub name: String,
    /// Latency in milliseconds.
    pub latency_ms: f64,
    /// Throughput in predictions per second.
    pub throughput: f64,
    /// Power in watts.
    pub power_w: f64,
    /// Energy efficiency in predictions per joule.
    pub energy_eff: f64,
    /// Speedup of "this work" over this row.
    pub speedup_of_this_work: f64,
}

/// Assembles the full Table V given the measured latency and power of this
/// work's design.
pub fn comparison_table(our_latency_ms: f64, our_power_w: f64) -> Vec<ComparisonRow> {
    let mut rows: Vec<ComparisonRow> = sota_catalogue()
        .into_iter()
        .map(|s| ComparisonRow {
            name: s.name.to_string(),
            latency_ms: s.latency_ms,
            throughput: s.throughput_pred_per_s(),
            power_w: s.power_w,
            energy_eff: s.energy_eff_pred_per_j(),
            speedup_of_this_work: s.latency_ms / our_latency_ms,
        })
        .collect();
    let ours_throughput = 1e3 / our_latency_ms;
    rows.push(ComparisonRow {
        name: "Our work (reproduced)".to_string(),
        latency_ms: our_latency_ms,
        throughput: ours_throughput,
        power_w: our_power_w,
        energy_eff: ours_throughput / our_power_w,
        speedup_of_this_work: 1.0,
    });
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_table_v() {
        let cat = sota_catalogue();
        assert_eq!(cat.len(), 7);
        let dota = cat.iter().find(|s| s.name == "DOTA").unwrap();
        assert!((dota.latency_ms - 34.1).abs() < 1e-9);
        assert!((dota.energy_eff_pred_per_j() - 34.18).abs() < 0.2);
        let ftrans = cat.iter().find(|s| s.name == "FTRANS").unwrap();
        assert!((ftrans.energy_eff_pred_per_j() - 0.65).abs() < 0.05);
    }

    #[test]
    fn paper_speedup_range_is_14_to_24x_over_asics() {
        // Table V: 14.2-23.2x speedup over the ASIC designs at 2.4 ms.
        let ours = paper_this_work();
        let speedups: Vec<f64> = sota_catalogue()
            .iter()
            .filter(|s| matches!(s.technology, Technology::Asic(_)))
            .map(|s| s.latency_ms / ours.latency_ms)
            .collect();
        let min = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = speedups.iter().cloned().fold(0.0, f64::max);
        assert!((min - 14.2).abs() < 0.3, "min speedup {min}");
        assert!((max - 23.3).abs() < 0.4, "max speedup {max}");
    }

    #[test]
    fn paper_energy_efficiency_beats_every_baseline() {
        let ours = paper_this_work();
        for s in sota_catalogue() {
            assert!(ours.energy_eff_pred_per_j() > s.energy_eff_pred_per_j(), "{}", s.name);
        }
    }

    #[test]
    fn comparison_table_includes_all_rows_plus_ours() {
        let table = comparison_table(2.4, 11.355);
        assert_eq!(table.len(), 8);
        let ftrans = table.iter().find(|r| r.name == "FTRANS").unwrap();
        assert!((ftrans.speedup_of_this_work - 25.67).abs() < 0.2);
    }
}
