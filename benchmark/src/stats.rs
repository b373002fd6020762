//! Order statistics: nearest-rank percentiles, medians with quartiles, and
//! per-segment percentiles.

/// Sorts ascending; NaNs (never produced by a timer) sort last.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Nearest-rank percentile of ascending `sorted` (`q` in 0..=1); 0 when empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) so `compare`
/// judges spread the way the driver does. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Per-round values boiled down: what a run reports for a metric is the
/// median of its rounds, stored with the quartiles and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let median = median(values);
        let [q1, _, q3] = quartiles(values).unwrap_or([median; 3]);
        Self { median, q1, q3, n: values.len() }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// One timed operation: when it was due (or started, in a closed loop),
/// how long it took from that instant, both in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub at_s: f64,
    pub latency_s: f64,
}

/// Cuts `samples` into `segment_s`-second segments by `at_s` (relative to
/// `origin_s`), takes percentile `q` inside each non-empty segment and
/// returns the per-segment values in time order. A pooled p95 or p99 on a
/// shared host is dominated by the one segment a neighbour disturbed; the
/// median segment is what repeats.
pub fn segment_percentiles(samples: &[Sample], origin_s: f64, segment_s: f64, q: f64) -> Vec<f64> {
    let mut segments: Vec<Vec<f64>> = Vec::new();
    for s in samples {
        let idx = (((s.at_s - origin_s) / segment_s).floor().max(0.0)) as usize;
        if segments.len() <= idx {
            segments.resize_with(idx + 1, Vec::new);
        }
        segments[idx].push(s.latency_s);
    }
    segments
        .into_iter()
        .filter(|seg| !seg.is_empty())
        .map(|seg| percentile(&sorted(seg), q))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some([1.5, 4.0, 12.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(s.median, 5.5);
        assert_eq!(s.n, 10);
        assert!((s.spread() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(Summary::of(&[4.0]).spread(), 0.0);
    }

    #[test]
    fn median_segment_ignores_one_disturbed_segment() {
        // Three 1-second segments of 100 samples at 1 ms; the middle one
        // carries ten 50 ms outliers (a neighbour's burst).
        let mut samples = Vec::new();
        for seg in 0..3 {
            for i in 0..100 {
                let slow = seg == 1 && i >= 90;
                samples.push(Sample {
                    at_s: 10.0 + seg as f64 + i as f64 / 100.0,
                    latency_s: if slow { 0.050 } else { 0.001 },
                });
            }
        }
        let p95 = segment_percentiles(&samples, 10.0, 1.0, 0.95);
        assert_eq!(p95, vec![0.001, 0.050, 0.001]);
        assert_eq!(median(&p95), 0.001);
        // Pooled, the same burst owns the tail.
        let pooled = sorted(samples.iter().map(|s| s.latency_s).collect());
        assert_eq!(percentile(&pooled, 0.99), 0.050);
    }

    #[test]
    fn empty_segments_are_skipped() {
        let samples = [Sample { at_s: 0.1, latency_s: 1.0 }, Sample { at_s: 2.5, latency_s: 3.0 }];
        assert_eq!(segment_percentiles(&samples, 0.0, 1.0, 0.5), vec![1.0, 3.0]);
    }
}
