//! The butterfly memory system: custom bank layout (S2P starting positions),
//! index coalescing and bank-conflict analysis (Section IV-B2, Figs. 8–11).
//!
//! The butterfly dataflow needs a different pair of elements per butterfly at
//! every stage. With a conventional row-major or column-major placement, some
//! stages require two elements from the same bank in the same cycle (Fig. 8).
//! The paper's S2P module instead shifts each stored column `c` down by a
//! *starting position* derived from the bit-count of `c`, after which every
//! storage column contains exactly one element per bank; the read control
//! then fetches storage columns and a small index-coalescing crossbar
//! re-forms butterfly pairs (Figs. 9–11).

/// How tensor elements are assigned to memory banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `bank = index / columns` (each bank stores a contiguous chunk).
    RowMajor,
    /// `bank = index % banks` (elements interleaved across banks).
    ColumnMajor,
    /// The paper's shifted layout generated by the S2P module.
    Butterfly,
}

/// Starting position (downward shift) of each storage column, following the
/// recursion `P_0 = 0`, `P_{2^{n-1}..2^n-1} = P_{0..2^{n-1}-1} - 1`, which the
/// hardware computes with a bit-count (Fig. 9b). The shift is returned as a
/// non-negative rotation amount modulo `banks`.
pub(crate) fn starting_positions(num_cols: usize, banks: usize) -> Vec<usize> {
    (0..num_cols).map(|c| (c.count_ones() as usize) % banks.max(1)).collect()
}

/// Returns the `(bank, column)` coordinates of element `index` under `layout`
/// for a memory with `banks` banks holding `n` elements.
///
/// # Panics
///
/// Panics when `banks` is zero, `n` is not a multiple of `banks`, or `index >= n`.
pub fn bank_and_column(layout: Layout, index: usize, n: usize, banks: usize) -> (usize, usize) {
    assert!(banks > 0, "need at least one bank");
    assert!(n.is_multiple_of(banks), "element count must be a multiple of the bank count");
    assert!(index < n, "index {index} out of range for {n} elements");
    let cols = n / banks;
    match layout {
        Layout::RowMajor => (index / cols, index % cols),
        Layout::ColumnMajor => (index % banks, index / banks),
        Layout::Butterfly => {
            let col = index / banks;
            let row = index % banks;
            let shift = starting_positions(cols, banks)[col];
            ((row + shift) % banks, col)
        }
    }
}

/// The butterfly pairs `(i, i + 2^stage)` accessed by stage `stage` of a
/// size-`n` transform, in natural order.
///
/// # Panics
///
/// Panics when `2^{stage+1} > n`.
pub fn stage_pairs(n: usize, stage: usize) -> Vec<(usize, usize)> {
    let half = 1usize << stage;
    assert!(2 * half <= n, "stage {stage} does not exist for size {n}");
    let mut pairs = Vec::with_capacity(n / 2);
    for block in (0..n).step_by(2 * half) {
        for k in 0..half {
            pairs.push((block + k, block + k + half));
        }
    }
    pairs
}

/// Result of simulating the operand fetches of one butterfly stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageAccessReport {
    /// Cycles needed to fetch all operands.
    pub cycles: u64,
    /// Minimum possible cycles (every bank busy every cycle).
    pub ideal_cycles: u64,
    /// Number of same-cycle bank conflicts encountered.
    pub conflicts: u64,
    /// Peak occupancy of the index-coalescing window (elements buffered while
    /// waiting for their partner). Only meaningful for [`Layout::Butterfly`].
    pub peak_coalesce_window: usize,
}

impl StageAccessReport {
    /// Whether the stage was served at full bank bandwidth with no stalls.
    pub(crate) fn is_conflict_free(&self) -> bool {
        self.conflicts == 0 && self.cycles == self.ideal_cycles
    }
}

/// Simulates fetching the operands of one butterfly stage.
///
/// For the naive layouts the fetch engine issues `banks / 2` butterfly pairs
/// per cycle (each pair needs two operands, so `banks` reads fill the bank
/// bandwidth); any cycle in which two required operands map to the same bank
/// stalls and is counted as a conflict. For the butterfly layout the engine
/// reads whole storage columns (one element per bank per cycle, conflict-free
/// by construction) and the index-coalescing window pairs up operands.
///
/// # Panics
///
/// Panics on invalid `n`/`banks`/`stage` combinations (see [`stage_pairs`]).
pub(crate) fn simulate_stage_access(
    layout: Layout,
    n: usize,
    banks: usize,
    stage: usize,
) -> StageAccessReport {
    let pairs = stage_pairs(n, stage);
    let ideal_cycles = (n as u64).div_ceil(banks as u64);
    match layout {
        Layout::RowMajor | Layout::ColumnMajor => {
            let pairs_per_cycle = (banks / 2).max(1);
            let mut cycles = 0u64;
            let mut conflicts = 0u64;
            for group in pairs.chunks(pairs_per_cycle) {
                let mut per_bank = vec![0u64; banks];
                for &(a, b) in group {
                    per_bank[bank_and_column(layout, a, n, banks).0] += 1;
                    per_bank[bank_and_column(layout, b, n, banks).0] += 1;
                }
                let worst = per_bank.iter().copied().max().unwrap_or(0);
                cycles += worst.max(1);
                conflicts += worst.saturating_sub(1);
            }
            StageAccessReport { cycles, ideal_cycles, conflicts, peak_coalesce_window: 0 }
        }
        Layout::Butterfly => {
            // The index-coalescing crossbar (Fig. 11) lets the read control
            // issue butterfly pairs out of natural order, as long as the two
            // operands of every pair issued in one cycle land in distinct
            // banks. Model this as a greedy scheduler over the pending pairs;
            // the peak number of deferred (skipped) pairs bounds the size the
            // coalescing buffer must have.
            let pairs_per_cycle = (banks / 2).max(1);
            let mut pending: std::collections::VecDeque<(usize, usize)> =
                pairs.iter().copied().collect();
            let mut cycles = 0u64;
            let mut conflicts = 0u64;
            let mut peak_window = 0usize;
            while !pending.is_empty() {
                cycles += 1;
                let mut used = vec![false; banks];
                let mut issued = 0usize;
                let mut deferred: std::collections::VecDeque<(usize, usize)> =
                    std::collections::VecDeque::new();
                while issued < pairs_per_cycle {
                    let Some((a, b)) = pending.pop_front() else { break };
                    let ba = bank_and_column(layout, a, n, banks).0;
                    let bb = bank_and_column(layout, b, n, banks).0;
                    if ba != bb && !used[ba] && !used[bb] {
                        used[ba] = true;
                        used[bb] = true;
                        issued += 1;
                    } else {
                        conflicts += 1;
                        deferred.push_back((a, b));
                    }
                }
                peak_window = peak_window.max(deferred.len());
                // Deferred pairs are retried first in the next cycle.
                for p in pending.drain(..) {
                    deferred.push_back(p);
                }
                pending = deferred;
            }
            // Conflicts here count deferrals absorbed by the coalescing
            // crossbar, not stall cycles; the stage is conflict-free when the
            // cycle count matches the ideal.
            let _ = conflicts;
            StageAccessReport {
                cycles,
                ideal_cycles,
                conflicts: cycles.saturating_sub(ideal_cycles),
                peak_coalesce_window: peak_window,
            }
        }
    }
}

/// Aggregated conflict behaviour across every stage of a size-`n` transform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformAccessReport {
    /// Per-stage reports in stage order.
    pub stages: Vec<StageAccessReport>,
}

impl TransformAccessReport {
    /// Simulates every stage of a size-`n` transform.
    pub fn analyze(layout: Layout, n: usize, banks: usize) -> Self {
        let num_stages = (n as f64).log2() as usize;
        Self {
            stages: (0..num_stages).map(|s| simulate_stage_access(layout, n, banks, s)).collect(),
        }
    }

    /// Total fetch cycles over all stages.
    pub fn total_cycles(&self) -> u64 {
        self.stages.iter().map(|s| s.cycles).sum()
    }

    /// Total conflicts over all stages.
    pub fn total_conflicts(&self) -> u64 {
        self.stages.iter().map(|s| s.conflicts).sum()
    }

    /// Whether every stage ran at full bandwidth.
    pub fn is_conflict_free(&self) -> bool {
        self.stages.iter().all(|s| s.is_conflict_free())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starting_positions_follow_bitcount_recursion() {
        // For 8 columns: P = popcount(c) = [0,1,1,2,1,2,2,3].
        assert_eq!(starting_positions(8, 8), vec![0, 1, 1, 2, 1, 2, 2, 3]);
        // The recursion P_{2^{n-1}..} = P_{0..} - 1 (mod banks) means the second
        // half is the first half shifted by one.
        let p = starting_positions(16, 4);
        for i in 0..8 {
            assert_eq!(p[8 + i], (p[i] + 1) % 4);
        }
    }

    #[test]
    fn butterfly_layout_is_a_permutation_per_column() {
        let n = 64;
        let banks = 8;
        for col in 0..n / banks {
            let mut seen = vec![false; banks];
            for idx in col * banks..(col + 1) * banks {
                let (bank, c) = bank_and_column(Layout::Butterfly, idx, n, banks);
                assert_eq!(c, col);
                assert!(!seen[bank], "two elements of column {col} share bank {bank}");
                seen[bank] = true;
            }
        }
    }

    #[test]
    fn column_major_conflicts_on_late_stages() {
        // Fig. 8b: accessing x0 and x8 conflicts in column-major order.
        let report = simulate_stage_access(Layout::ColumnMajor, 16, 4, 3);
        assert!(report.conflicts > 0);
        assert!(report.cycles > report.ideal_cycles);
    }

    #[test]
    fn row_major_conflicts_on_early_stages() {
        // Fig. 8c: accessing x0 and x2 conflicts in row-major order.
        let report = simulate_stage_access(Layout::RowMajor, 16, 4, 1);
        assert!(report.conflicts > 0);
    }

    #[test]
    fn butterfly_layout_is_conflict_free_for_all_stages_and_sizes() {
        for &n in &[16usize, 64, 256, 1024] {
            for &banks in &[4usize, 8, 16] {
                if n < banks {
                    continue;
                }
                let report = TransformAccessReport::analyze(Layout::Butterfly, n, banks);
                assert!(report.is_conflict_free(), "n={n} banks={banks}");
            }
        }
    }

    #[test]
    fn naive_layouts_are_not_conflict_free() {
        for layout in [Layout::RowMajor, Layout::ColumnMajor] {
            let report = TransformAccessReport::analyze(layout, 256, 16);
            assert!(!report.is_conflict_free(), "{layout:?}");
            assert!(report.total_conflicts() > 0);
        }
    }

    #[test]
    fn coalescing_window_is_bounded_by_two_columns() {
        for &n in &[64usize, 256, 1024] {
            let banks = 16;
            let report = TransformAccessReport::analyze(Layout::Butterfly, n, banks);
            for stage in &report.stages {
                assert!(
                    stage.peak_coalesce_window <= banks,
                    "window {} exceeds one column of {banks}",
                    stage.peak_coalesce_window
                );
            }
        }
    }

    #[test]
    fn stage_pairs_enumerate_every_element_once() {
        let pairs = stage_pairs(16, 2);
        assert_eq!(pairs.len(), 8);
        let mut seen = [false; 16];
        for (a, b) in pairs {
            assert_eq!(b - a, 4);
            seen[a] = true;
            seen[b] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
