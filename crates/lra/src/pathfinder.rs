//! Pathfinder proxy: decide whether a path drawn on a small grid connects the
//! left edge to the right edge — a long-range spatial-dependency task.

use crate::Sample;
use rand::rngs::StdRng;
use rand::Rng;

/// Vocabulary: empty, path cell, distractor cell, endpoint marker.
pub(crate) const VOCAB: usize = 4;

const EMPTY: usize = 0;
const PATH: usize = 1;
const DISTRACTOR: usize = 2;
const ENDPOINT: usize = 3;

/// Generates one pathfinder sample of `seq_len` cells; `index` balances labels.
pub(crate) fn sample(seq_len: usize, index: usize, rng: &mut StdRng) -> Sample {
    let label = index % 2;
    let side = (seq_len as f64).sqrt().floor() as usize;
    let side = side.max(4);
    let mut grid = vec![EMPTY; side * side];

    // Draw a monotone left-to-right walk.
    let mut row = rng.gen_range(0..side);
    let mut cells = Vec::with_capacity(side);
    for col in 0..side {
        cells.push((row, col));
        if col + 1 < side {
            let step: i64 = rng.gen_range(-1..=1);
            row = (row as i64 + step).clamp(0, side as i64 - 1) as usize;
        }
    }
    // For the negative class, cut the middle third out of the path so the two
    // halves are disconnected.
    let broken_range = if label == 0 { (side / 3, 2 * side / 3) } else { (0, 0) };
    for (i, &(r, c)) in cells.iter().enumerate() {
        if label == 0 && i >= broken_range.0 && i < broken_range.1 {
            continue;
        }
        grid[r * side + c] = PATH;
    }
    // Endpoint markers on the left and right edges.
    let (r0, c0) = cells[0];
    let (r1, c1) = cells[side - 1];
    grid[r0 * side + c0] = ENDPOINT;
    grid[r1 * side + c1] = ENDPOINT;
    // A few distractor cells away from the path.
    for _ in 0..side / 2 {
        let r = rng.gen_range(0..side);
        let c = rng.gen_range(0..side);
        if grid[r * side + c] == EMPTY {
            grid[r * side + c] = DISTRACTOR;
        }
    }

    let mut tokens = vec![EMPTY; seq_len];
    tokens[..grid.len().min(seq_len)].copy_from_slice(&grid[..grid.len().min(seq_len)]);
    Sample::new(tokens, label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn connected(tokens: &[usize], side: usize) -> bool {
        // BFS from left-edge path/endpoint cells to the right edge.
        let at = |r: usize, c: usize| tokens[r * side + c];
        let passable = |r: usize, c: usize| at(r, c) == PATH || at(r, c) == ENDPOINT;
        let mut queue: Vec<(usize, usize)> =
            (0..side).filter(|&r| passable(r, 0)).map(|r| (r, 0)).collect();
        let mut seen = vec![false; side * side];
        for &(r, _) in &queue {
            seen[r * side] = true;
        }
        while let Some((r, c)) = queue.pop() {
            if c == side - 1 {
                return true;
            }
            let neighbours = [
                (r.wrapping_sub(1), c),
                (r + 1, c),
                (r, c.wrapping_sub(1)),
                (r, c + 1),
                (r.wrapping_sub(1), c + 1),
                (r + 1, c + 1),
                (r.wrapping_sub(1), c.wrapping_sub(1)),
                (r + 1, c.wrapping_sub(1)),
            ];
            for (nr, nc) in neighbours {
                if nr < side && nc < side && !seen[nr * side + nc] && passable(nr, nc) {
                    seen[nr * side + nc] = true;
                    queue.push((nr, nc));
                }
            }
        }
        false
    }

    #[test]
    fn positive_samples_are_connected_and_negative_are_not() {
        let mut rng = StdRng::seed_from_u64(11);
        let seq_len = 64;
        let side = 8;
        for i in 0..100 {
            let s = sample(seq_len, i, &mut rng);
            assert_eq!(connected(&s.tokens, side), s.label == 1, "sample {i}");
        }
    }

    #[test]
    fn exactly_two_endpoints_exist() {
        let mut rng = StdRng::seed_from_u64(12);
        let s = sample(64, 1, &mut rng);
        assert_eq!(s.tokens.iter().filter(|&&t| t == ENDPOINT).count(), 2);
    }
}
