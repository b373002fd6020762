//! Pareto-front extraction over (accuracy, latency) objective pairs.

/// Returns the indices of the Pareto-optimal points when *maximising*
/// `accuracy` and *minimising* `latency`.
///
/// A point is dominated when another point is at least as accurate and at
/// least as fast, and strictly better in one of the two. Indices are returned
/// sorted by ascending latency.
///
/// # Panics
///
/// Panics when the two slices have different lengths.
pub(crate) fn pareto_front_indices(accuracy: &[f64], latency: &[f64]) -> Vec<usize> {
    assert_eq!(accuracy.len(), latency.len(), "objective vectors must have equal length");
    let n = accuracy.len();
    let mut front: Vec<usize> = (0..n)
        .filter(|&i| {
            !(0..n).any(|j| {
                j != i
                    && accuracy[j] >= accuracy[i]
                    && latency[j] <= latency[i]
                    && (accuracy[j] > accuracy[i] || latency[j] < latency[i])
            })
        })
        .collect();
    front.sort_by(|&a, &b| latency[a].partial_cmp(&latency[b]).expect("finite latencies"));
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominated_points_are_excluded() {
        let accuracy = [0.9, 0.8, 0.95, 0.7];
        let latency = [10.0, 12.0, 20.0, 5.0];
        // Point 1 (0.8, 12) is dominated by point 0 (0.9, 10).
        let front = pareto_front_indices(&accuracy, &latency);
        assert_eq!(front, vec![3, 0, 2]);
    }

    #[test]
    fn identical_points_all_survive() {
        let accuracy = [0.5, 0.5];
        let latency = [1.0, 1.0];
        assert_eq!(pareto_front_indices(&accuracy, &latency).len(), 2);
    }

    #[test]
    fn single_point_is_its_own_front() {
        assert_eq!(pareto_front_indices(&[0.3], &[2.0]), vec![0]);
    }

    #[test]
    fn empty_input_gives_empty_front() {
        assert!(pareto_front_indices(&[], &[]).is_empty());
    }
}
