//! Activation-range observers used during calibration.

use fab_tensor::simd;

/// Smallest step size an observer reports: guards against degenerate
/// all-zero activations producing a zero scale (and a divide-by-zero at
/// quantization time).
const MIN_SCALE: f32 = 1e-30;

/// Number of histogram bins of the percentile observer.
const BINS: usize = 2048;

/// Which statistic turns observed activations into a quantization scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObserverKind {
    /// Scale from the absolute maximum: lossless range coverage, but one
    /// outlier can stretch the step size for everything else.
    MinMax,
    /// Scale from the given quantile (in `(0, 1]`) of the absolute-value
    /// distribution, clipping outliers — the usual post-training choice
    /// (e.g. `0.999`). Values beyond the quantile saturate at ±127.
    Percentile(f32),
}

impl Default for ObserverKind {
    fn default() -> Self {
        ObserverKind::Percentile(0.999)
    }
}

/// A streaming absolute-value histogram with a power-of-two growing range:
/// when a value exceeds the current range, the range doubles and adjacent
/// bins fold together, so memory stays fixed at [`BINS`] counters.
#[derive(Debug, Clone)]
struct Histogram {
    counts: Vec<u64>,
    range: f32,
    total: u64,
}

impl Histogram {
    fn new() -> Self {
        Self { counts: vec![0; BINS], range: 1.0, total: 0 }
    }

    fn record(&mut self, a: f32) {
        while a > self.range {
            // Fold bins pairwise: bin i of the doubled range covers bins
            // 2i and 2i+1 of the old one.
            for i in 0..BINS / 2 {
                self.counts[i] = self.counts[2 * i] + self.counts[2 * i + 1];
            }
            for c in &mut self.counts[BINS / 2..] {
                *c = 0;
            }
            self.range *= 2.0;
        }
        let bin = ((a / self.range * BINS as f32) as usize).min(BINS - 1);
        self.counts[bin] += 1;
        self.total += 1;
    }

    /// Upper edge of the bin containing the `q`-quantile of recorded values.
    fn quantile(&self, q: f32) -> f32 {
        if self.total == 0 {
            return 0.0;
        }
        let target = ((q as f64 * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return (i + 1) as f32 / BINS as f32 * self.range;
            }
        }
        self.range
    }
}

/// Streams activation values and reports a symmetric int8 quantization
/// scale (the step size `amax / 127`).
#[derive(Debug, Clone)]
pub struct Observer {
    kind: ObserverKind,
    max_abs: f32,
    hist: Option<Histogram>,
}

impl Observer {
    /// Creates an observer of the given kind.
    ///
    /// # Panics
    ///
    /// Panics when a percentile is outside `(0, 1]`.
    pub(crate) fn new(kind: ObserverKind) -> Self {
        if let ObserverKind::Percentile(q) = kind {
            assert!(q > 0.0 && q <= 1.0, "percentile {q} outside (0, 1]");
        }
        let hist = matches!(kind, ObserverKind::Percentile(_)).then(Histogram::new);
        Self { kind, max_abs: 0.0, hist }
    }

    /// Streams one slice of activations. The histogram takes them in runs
    /// of one range ([`simd::abs_histogram_run`], a vector at a time) and
    /// grows at each value above it, so the counts are those of recording
    /// the values one by one.
    pub(crate) fn observe(&mut self, xs: &[f32]) {
        let Some(h) = &mut self.hist else {
            for &x in xs {
                self.max_abs = self.max_abs.max(x.abs());
            }
            return;
        };
        let mut rest = xs;
        while !rest.is_empty() {
            let (binned, max) = simd::abs_histogram_run(rest, h.range, &mut h.counts);
            h.total += binned as u64;
            self.max_abs = self.max_abs.max(max);
            rest = &rest[binned..];
            if let Some((&x, tail)) = rest.split_first() {
                // `|x|` is above the range, so not NaN.
                self.max_abs = self.max_abs.max(x.abs());
                h.record(x.abs());
                rest = tail;
            }
        }
    }

    /// The representable absolute range the observer selects (`127 ·
    /// scale`).
    pub(crate) fn range(&self) -> f32 {
        match (&self.kind, &self.hist) {
            (ObserverKind::MinMax, _) => self.max_abs,
            (ObserverKind::Percentile(q), Some(h)) => h.quantile(*q).min(self.max_abs),
            (ObserverKind::Percentile(_), None) => unreachable!("percentile without histogram"),
        }
    }

    /// The quantization step size: `range / 127`, floored at a tiny positive
    /// value so downstream `1 / scale` stays finite.
    pub(crate) fn scale(&self) -> f32 {
        (self.range() / 127.0).max(MIN_SCALE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minmax_tracks_the_absolute_maximum() {
        let mut o = Observer::new(ObserverKind::MinMax);
        o.observe(&[0.5, -3.0, 1.0]);
        o.observe(&[2.0]);
        assert_eq!(o.range(), 3.0);
        assert!((o.scale() - 3.0 / 127.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_clips_outliers() {
        let mut o = Observer::new(ObserverKind::Percentile(0.99));
        let mut xs: Vec<f32> = (0..1000).map(|i| (i as f32 / 1000.0) * 0.5).collect();
        xs.push(100.0); // one outlier
        o.observe(&xs);
        assert!(o.range() < 1.0, "percentile range {} must ignore the outlier", o.range());
        let mm = {
            let mut m = Observer::new(ObserverKind::MinMax);
            m.observe(&xs);
            m.range()
        };
        assert_eq!(mm, 100.0);
    }

    #[test]
    fn percentile_one_covers_the_maximum_within_bin_resolution() {
        let mut o = Observer::new(ObserverKind::Percentile(1.0));
        o.observe(&[0.1, 0.9, 7.3]);
        // q=1.0 is clamped to the observed max (bin upper edges overshoot).
        assert!(o.range() >= 7.3 * (1.0 - 2.0 / 2048.0) && o.range() <= 7.3);
    }

    #[test]
    fn empty_observer_reports_the_floor_scale() {
        let o = Observer::new(ObserverKind::MinMax);
        assert!(o.scale() > 0.0);
        let p = Observer::new(ObserverKind::default());
        assert!(p.scale() > 0.0);
    }

    #[test]
    fn histogram_range_growth_preserves_counts() {
        let mut o = Observer::new(ObserverKind::Percentile(0.5));
        o.observe(&[0.25; 100]);
        o.observe(&[300.0]); // forces multiple range doublings
                             // The median must stay near 0.25 despite the folds.
        assert!(o.range() <= 1.0, "median range {} blew up after folding", o.range());
    }

    /// `observe` as it was before it binned in runs: one value at a time.
    fn observed_one_by_one(kind: ObserverKind, slices: &[Vec<f32>]) -> Observer {
        let mut o = Observer::new(kind);
        for &x in slices.iter().flatten() {
            let a = x.abs();
            if a > o.max_abs {
                o.max_abs = a;
            }
            if let Some(h) = &mut o.hist {
                h.record(a);
            }
        }
        o
    }

    /// Slices around the vector width with NaN, ±0, values equal to the
    /// range (1, then 2 and 4 once it grew), growths at every lane of a
    /// step and in the scalar tail, and an infinity that takes the range
    /// to infinity.
    fn awkward_slices() -> Vec<Vec<Vec<f32>>> {
        let mut state = 0x2545_f491_u32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            (state % 2001) as f32 / 1000.0 - 1.0
        };
        let specials = [f32::NAN, -f32::NAN, 0.0, -0.0, 1.0, -1.0, 2.0, 4.0];
        let mut cases = Vec::new();
        for len in [1usize, 7, 8, 9, 15, 16, 17, 40, 1000] {
            for grow_at in [None, Some(0), Some(3), Some(7), Some(8), Some(len / 2), Some(len - 1)]
            {
                let mut xs: Vec<f32> = (0..len).map(|_| next()).collect();
                for (i, &v) in specials.iter().enumerate() {
                    if let Some(x) = xs.get_mut((i * 5 + len / 3) % len) {
                        *x = v;
                    }
                }
                if let Some(at) = grow_at.filter(|&at| at < len) {
                    xs[at] = -3.0 - at as f32;
                    if let Some(x) = xs.get_mut(at + 1) {
                        *x = 4.0;
                    }
                }
                // The same values again: they bin against the grown range.
                cases.push(vec![xs.clone(), xs]);
            }
        }
        cases.push(vec![vec![0.5, f32::INFINITY, 0.25, f32::NAN, 7.0], vec![1.0; 9]]);
        cases.push(vec![vec![-0.0; 17], vec![f32::NAN; 9], vec![]]);
        cases
    }

    // On the active backend; `fab_tensor::simd`'s differential table holds
    // every arm of the run kernel to the per-value loop.
    #[test]
    fn binning_in_runs_gives_the_counts_of_one_value_at_a_time() {
        for slices in awkward_slices() {
            for kind in [ObserverKind::Percentile(0.999), ObserverKind::MinMax] {
                let expected = observed_one_by_one(kind, &slices);
                let mut got = Observer::new(kind);
                for xs in &slices {
                    got.observe(xs);
                }
                let case = format!("{kind:?} {slices:?}");
                assert_eq!(got.max_abs.to_bits(), expected.max_abs.to_bits(), "{case}");
                assert_eq!(got.scale().to_bits(), expected.scale().to_bits(), "{case}");
                let hist = |o: &Observer| {
                    o.hist.as_ref().map(|h| (h.counts.clone(), h.range.to_bits(), h.total))
                };
                assert_eq!(hist(&got), hist(&expected), "{case}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn invalid_percentile_is_rejected() {
        let _ = Observer::new(ObserverKind::Percentile(1.5));
    }
}
