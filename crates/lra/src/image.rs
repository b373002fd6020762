//! Pixel-sequence image-classification proxy (LRA "Image").
//!
//! Each sample is a small grey-scale image flattened into a raster-order
//! pixel sequence; the four classes are global spatial patterns (horizontal
//! stripes, vertical stripes, checkerboard, radial gradient) that cannot be
//! distinguished from any short window of pixels alone.

use crate::Sample;
use rand::rngs::StdRng;
use rand::Rng;

/// 3-bit quantised pixel intensities.
pub(crate) const VOCAB: usize = 8;

/// Generates one image sample of `seq_len` pixels; `index` balances classes.
pub(crate) fn sample(seq_len: usize, index: usize, rng: &mut StdRng) -> Sample {
    let label = index % 4;
    let side = (seq_len as f64).sqrt().floor() as usize;
    let side = side.max(4);
    let mut tokens = vec![0usize; seq_len];
    for r in 0..side {
        for c in 0..side {
            let idx = r * side + c;
            if idx >= seq_len {
                break;
            }
            let base = match label {
                0 => {
                    // Horizontal stripes with period 4.
                    if (r / 2) % 2 == 0 {
                        6
                    } else {
                        1
                    }
                }
                1 => {
                    // Vertical stripes with period 4.
                    if (c / 2) % 2 == 0 {
                        6
                    } else {
                        1
                    }
                }
                2 => {
                    // Checkerboard.
                    if (r + c) % 2 == 0 {
                        6
                    } else {
                        1
                    }
                }
                _ => {
                    // Radial gradient from the centre.
                    let dr = r as i64 - side as i64 / 2;
                    let dc = c as i64 - side as i64 / 2;
                    let dist = ((dr * dr + dc * dc) as f64).sqrt();
                    (7.0 - dist).clamp(0.0, 7.0) as usize
                }
            };
            // +-1 intensity noise keeps the task non-trivial.
            let noise: i64 = rng.gen_range(-1..=1);
            tokens[idx] = (base as i64 + noise).clamp(0, (VOCAB - 1) as i64) as usize;
        }
    }
    Sample::new(tokens, label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn four_distinct_classes_are_generated() {
        let mut rng = StdRng::seed_from_u64(2);
        let labels: Vec<usize> = (0..8).map(|i| sample(64, i, &mut rng).label).collect();
        assert_eq!(labels, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn stripes_differ_between_horizontal_and_vertical() {
        let mut rng = StdRng::seed_from_u64(2);
        let h = sample(64, 0, &mut rng);
        let v = sample(64, 1, &mut rng);
        // Row 0 of a horizontal-stripe image is roughly constant; row 0 of a
        // vertical-stripe image alternates.
        let h_row0: Vec<usize> = h.tokens[0..8].to_vec();
        let v_row0: Vec<usize> = v.tokens[0..8].to_vec();
        let h_range = h_row0.iter().max().unwrap() - h_row0.iter().min().unwrap();
        let v_range = v_row0.iter().max().unwrap() - v_row0.iter().min().unwrap();
        assert!(v_range > h_range);
    }

    #[test]
    fn pixels_stay_in_vocab() {
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..16 {
            let s = sample(100, i, &mut rng);
            assert!(s.tokens.iter().all(|&t| t < VOCAB));
        }
    }
}
