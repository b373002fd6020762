//! Byte-level text-classification proxy.
//!
//! The label depends on which of two marker bytes occurs more often across
//! the *entire* sequence, so a classifier must aggregate global information —
//! a sliding window or purely local model cannot solve it.

use crate::Sample;
use rand::rngs::StdRng;
use rand::Rng;

/// Byte-like vocabulary.
pub(crate) const VOCAB: usize = 32;

const MARKER_A: usize = 2;
const MARKER_B: usize = 3;

/// Generates one text sample of `seq_len` tokens; `index` balances labels.
pub(crate) fn sample(seq_len: usize, index: usize, rng: &mut StdRng) -> Sample {
    let label = index % 2;
    let mut tokens: Vec<usize> = (0..seq_len).map(|_| rng.gen_range(4..VOCAB)).collect();
    // The majority marker wins by a clear margin scattered across the sequence.
    let major = seq_len / 8 + rng.gen_range(1usize..=2);
    let minor = rng.gen_range(0..seq_len / 16 + 1);
    let (major_tok, minor_tok) =
        if label == 1 { (MARKER_A, MARKER_B) } else { (MARKER_B, MARKER_A) };
    let mut positions: Vec<usize> = (0..seq_len).collect();
    for i in (1..positions.len()).rev() {
        positions.swap(i, rng.gen_range(0..=i));
    }
    for &p in positions.iter().take(major) {
        tokens[p] = major_tok;
    }
    for &p in positions.iter().skip(major).take(minor) {
        tokens[p] = minor_tok;
    }
    Sample::new(tokens, label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn label_matches_marker_majority() {
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..100 {
            let s = sample(64, i, &mut rng);
            let a = s.tokens.iter().filter(|&&t| t == MARKER_A).count();
            let b = s.tokens.iter().filter(|&&t| t == MARKER_B).count();
            if s.label == 1 {
                assert!(a > b, "label 1 but counts {a} vs {b}");
            } else {
                assert!(b > a, "label 0 but counts {a} vs {b}");
            }
        }
    }

    #[test]
    fn markers_are_spread_beyond_a_local_window() {
        let mut rng = StdRng::seed_from_u64(9);
        let s = sample(64, 1, &mut rng);
        let positions: Vec<usize> =
            s.tokens.iter().enumerate().filter(|(_, &t)| t == MARKER_A).map(|(i, _)| i).collect();
        let spread = positions.last().unwrap() - positions.first().unwrap();
        assert!(spread > 16, "markers clustered in a window of {spread}");
    }
}
