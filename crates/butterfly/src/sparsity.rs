//! The sparsity-pattern taxonomy of the paper's Section III-A.
//!
//! Fig. 4 classifies the basic sparsity patterns found in efficient
//! Transformer variants by their data-access regularity, hardware efficiency
//! and the information range they capture; Table II lists which patterns each
//! published variant combines. This module makes that taxonomy machine
//! checkable: each pattern can generate its boolean attention mask and report
//! its access properties, and the variant catalogue is available as data.

/// The five basic sparsity patterns of Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SparsityPattern {
    /// Low-rank projection of the attention matrix (e.g. Linformer).
    LowRank,
    /// Banded/sliding-window locality (e.g. Longformer's local windows).
    SlidingWindow,
    /// Recursive butterfly connectivity (FFT-like), the pattern this paper adopts.
    Butterfly,
    /// Unstructured random sparsity.
    Random,
    /// Coarse block-wise sparsity (e.g. Reformer buckets).
    BlockWise,
}

/// How a pattern reads its operands from memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataAccess {
    /// Requires both sequential row and column reads.
    RowAndColumn,
    /// Strided but regular reads.
    RegularStride,
    /// Data-dependent random reads.
    RandomRead,
}

/// The information range a pattern can capture in one application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InfoRange {
    /// Only long-range/global token relationships.
    Global,
    /// Only short-range/local token relationships.
    Local,
    /// Both global and local relationships.
    GlobalAndLocal,
}

impl SparsityPattern {
    /// All five basic patterns, in the order of Fig. 4.
    pub const ALL: [SparsityPattern; 5] = [
        SparsityPattern::LowRank,
        SparsityPattern::SlidingWindow,
        SparsityPattern::Butterfly,
        SparsityPattern::Random,
        SparsityPattern::BlockWise,
    ];

    /// The data-access behaviour of this pattern (Fig. 4, "Data Access" row).
    pub fn data_access(self) -> DataAccess {
        match self {
            SparsityPattern::LowRank => DataAccess::RowAndColumn,
            SparsityPattern::SlidingWindow
            | SparsityPattern::Butterfly
            | SparsityPattern::BlockWise => DataAccess::RegularStride,
            SparsityPattern::Random => DataAccess::RandomRead,
        }
    }

    /// Whether the pattern maps efficiently onto hardware without dynamic
    /// controllers (Fig. 4, "HW Eff." row).
    pub fn hardware_efficient(self) -> bool {
        matches!(self.data_access(), DataAccess::RegularStride)
    }

    /// The information range captured by the pattern (Fig. 4, "Info." row).
    pub fn info_range(self) -> InfoRange {
        match self {
            SparsityPattern::LowRank => InfoRange::Global,
            SparsityPattern::SlidingWindow | SparsityPattern::BlockWise => InfoRange::Local,
            SparsityPattern::Butterfly | SparsityPattern::Random => InfoRange::GlobalAndLocal,
        }
    }

    /// Generates the `n × n` boolean connectivity mask of this pattern.
    ///
    /// `density` controls the nominal fraction of non-zeros for the patterns
    /// that have a free parameter (window width, rank, block size, random
    /// density); the butterfly mask is fully determined by `n`.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero or `density` is not in `(0, 1]`.
    pub fn mask(self, n: usize, density: f64) -> Vec<Vec<bool>> {
        assert!(n > 0, "mask size must be positive");
        assert!(density > 0.0 && density <= 1.0, "density must be in (0, 1]");
        let mut mask = vec![vec![false; n]; n];
        match self {
            SparsityPattern::LowRank => {
                let rank = ((n as f64 * density).ceil() as usize).max(1);
                // A rank-r factorisation touches r full rows and r full columns.
                for (i, row) in mask.iter_mut().enumerate() {
                    for (j, cell) in row.iter_mut().enumerate() {
                        *cell = i < rank || j < rank;
                    }
                }
            }
            SparsityPattern::SlidingWindow => {
                let w = ((n as f64 * density / 2.0).ceil() as usize).max(1);
                for (i, row) in mask.iter_mut().enumerate() {
                    for (j, cell) in row.iter_mut().enumerate() {
                        *cell = i.abs_diff(j) <= w;
                    }
                }
            }
            SparsityPattern::Butterfly => {
                // Union of the butterfly factors' supports: i and j connected
                // when they differ in at most one bit position block.
                for i in 0..n {
                    mask[i][i] = true;
                    let mut d = 1;
                    while d < n {
                        if i ^ d < n {
                            mask[i][i ^ d] = true;
                        }
                        d <<= 1;
                    }
                }
            }
            SparsityPattern::Random => {
                // Deterministic pseudo-random fill so the taxonomy stays reproducible.
                let mut state = 0x9E3779B97F4A7C15u64;
                for (i, row) in mask.iter_mut().enumerate() {
                    for (j, cell) in row.iter_mut().enumerate() {
                        state ^= (i as u64).wrapping_mul(0x100000001B3) ^ (j as u64) << 17;
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let sample = (state >> 33) as f64 / (1u64 << 31) as f64;
                        *cell = sample < density;
                    }
                }
            }
            SparsityPattern::BlockWise => {
                let blocks = (1.0 / density).round().max(1.0) as usize;
                let bs = (n / blocks).max(1);
                for (i, row) in mask.iter_mut().enumerate() {
                    for (j, cell) in row.iter_mut().enumerate() {
                        *cell = i / bs == j / bs;
                    }
                }
            }
        }
        mask
    }

    /// Fraction of non-zero entries in the pattern's mask.
    pub fn mask_density(self, n: usize, density: f64) -> f64 {
        let m = self.mask(n, density);
        let nnz: usize = m.iter().map(|r| r.iter().filter(|&&b| b).count()).sum();
        nnz as f64 / (n * n) as f64
    }
}

/// A published efficient-Transformer variant and the sparsity patterns it
/// combines (Table II).
#[derive(Debug, Clone, PartialEq)]
pub struct VariantSpec {
    /// Variant name as given in the paper.
    pub name: &'static str,
    /// Basic patterns the variant combines.
    pub patterns: Vec<SparsityPattern>,
    /// Whether the variant sparsifies the attention mechanism.
    pub sparsifies_attention: bool,
    /// Whether the variant sparsifies the feed-forward network.
    pub sparsifies_ffn: bool,
    /// Whether attention and FFN share a single unified sparsity pattern.
    pub unified_sparsity: bool,
    /// Whether the variant was co-designed with hardware.
    pub hardware_codesign: bool,
}

/// Returns the Table II catalogue of published variants plus this work.
pub fn variant_catalogue() -> Vec<VariantSpec> {
    use SparsityPattern::*;
    vec![
        VariantSpec {
            name: "Performer/Linformer",
            patterns: vec![LowRank],
            sparsifies_attention: true,
            sparsifies_ffn: false,
            unified_sparsity: false,
            hardware_codesign: false,
        },
        VariantSpec {
            name: "Reformer",
            patterns: vec![BlockWise],
            sparsifies_attention: true,
            sparsifies_ffn: false,
            unified_sparsity: false,
            hardware_codesign: false,
        },
        VariantSpec {
            name: "Sparse Sinkhorn",
            patterns: vec![BlockWise, Random],
            sparsifies_attention: true,
            sparsifies_ffn: false,
            unified_sparsity: false,
            hardware_codesign: false,
        },
        VariantSpec {
            name: "Longformer",
            patterns: vec![SlidingWindow, LowRank],
            sparsifies_attention: true,
            sparsifies_ffn: false,
            unified_sparsity: false,
            hardware_codesign: false,
        },
        VariantSpec {
            name: "BigBird",
            patterns: vec![Random, SlidingWindow, LowRank],
            sparsifies_attention: true,
            sparsifies_ffn: false,
            unified_sparsity: false,
            hardware_codesign: false,
        },
        VariantSpec {
            name: "FNet",
            patterns: vec![Butterfly],
            sparsifies_attention: true,
            sparsifies_ffn: false,
            unified_sparsity: false,
            hardware_codesign: false,
        },
        VariantSpec {
            name: "Kaleidoscope",
            patterns: vec![Butterfly],
            sparsifies_attention: false,
            sparsifies_ffn: true,
            unified_sparsity: false,
            hardware_codesign: false,
        },
        VariantSpec {
            name: "Sparse Transformer",
            patterns: vec![LowRank, Butterfly, SlidingWindow],
            sparsifies_attention: true,
            sparsifies_ffn: false,
            unified_sparsity: false,
            hardware_codesign: false,
        },
        VariantSpec {
            name: "Pixelfly/Monarch",
            patterns: vec![Butterfly, BlockWise, LowRank],
            sparsifies_attention: true,
            sparsifies_ffn: true,
            unified_sparsity: false,
            hardware_codesign: false,
        },
        VariantSpec {
            name: "FABNet (this work)",
            patterns: vec![Butterfly],
            sparsifies_attention: true,
            sparsifies_ffn: true,
            unified_sparsity: true,
            hardware_codesign: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn butterfly_is_the_only_hw_efficient_global_and_local_pattern() {
        let good: Vec<_> = SparsityPattern::ALL
            .iter()
            .filter(|p| p.hardware_efficient() && p.info_range() == InfoRange::GlobalAndLocal)
            .collect();
        assert_eq!(good, vec![&SparsityPattern::Butterfly]);
    }

    #[test]
    fn butterfly_mask_has_n_log_n_support() {
        let n = 64;
        let mask = SparsityPattern::Butterfly.mask(n, 1.0);
        let nnz: usize = mask.iter().map(|r| r.iter().filter(|&&b| b).count()).sum();
        // log2(64)=6 off-diagonal partners + the diagonal itself per row.
        assert_eq!(nnz, n * 7);
    }

    #[test]
    fn sliding_window_mask_is_banded() {
        let mask = SparsityPattern::SlidingWindow.mask(16, 0.25);
        assert!(mask[0][0] && mask[0][1]);
        assert!(!mask[0][15]);
    }

    #[test]
    fn random_mask_density_tracks_request() {
        let d = SparsityPattern::Random.mask_density(64, 0.3);
        assert!((d - 0.3).abs() < 0.1, "density {d}");
    }

    #[test]
    fn blockwise_mask_is_block_diagonal() {
        let mask = SparsityPattern::BlockWise.mask(16, 0.25);
        assert!(mask[0][3] && !mask[0][4]);
    }

    #[test]
    fn only_this_work_unifies_sparsity_across_attention_and_ffn() {
        let cat = variant_catalogue();
        let unified: Vec<_> = cat.iter().filter(|v| v.unified_sparsity).collect();
        assert_eq!(unified.len(), 1);
        assert!(unified[0].name.contains("FABNet"));
        assert!(unified[0].hardware_codesign);
    }

    #[test]
    fn catalogue_patterns_match_paper_counts() {
        let cat = variant_catalogue();
        assert_eq!(cat.len(), 10);
        let fnet = cat.iter().find(|v| v.name == "FNet").unwrap();
        assert_eq!(fnet.patterns, vec![SparsityPattern::Butterfly]);
    }
}
