//! The co-design sweep: enumerate, filter by resources, evaluate accuracy and
//! latency in parallel, extract the Pareto front and pick the best design
//! under an accuracy constraint (Fig. 15 and Fig. 18).
//!
//! A design's accuracy depends only on its algorithm parameters, so the
//! evaluation runs in two phases per distinct algorithm [`ModelConfig`]:
//!
//! 1. **Per config**: one [`LayerSchedule`] and one
//!    [`AccuracyEstimator::estimate`] call. With a training estimator this is
//!    nearly all of the sweep's cost: trainings per sweep = distinct
//!    algorithm configs among the feasible points (8 for the 16 points of
//!    [`DesignSpace::tiny_for_tests`], 60 for the 6 654 feasible points of
//!    [`DesignSpace::lra_vcu128`]).
//! 2. **Per design point**: the config's accuracy, and its schedule simulated
//!    on the point's own hardware (microseconds).
//!
//! The configs are spread over up to `num_threads` threads of the worker
//! pool (the caller among them, one fork per sweep), largest schedule in
//! FLOPs first; each thread runs both phases for the configs it claims.

use crate::accuracy::AccuracyEstimator;
use crate::pareto::pareto_front_indices;
use crate::space::{DesignPoint, DesignSpace};
use fab_accel::workload::LayerSchedule;
use fab_accel::{resources, Simulator};
use fab_nn::{ModelConfig, ModelKind};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::sync::Mutex;

/// Options controlling a co-design run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CodesignOptions {
    /// Sequence length of the target task.
    pub seq_len: usize,
    /// Maximum tolerated accuracy loss relative to the estimator's reference
    /// (the paper constrains this to 1% on LRA-Text, 0.5% elsewhere).
    pub max_accuracy_loss: f64,
    /// Most threads the sweep runs on, the caller included: the width of
    /// its one fork over the worker pool (see [`rayon::fork_wide`]).
    pub num_threads: usize,
}

impl Default for CodesignOptions {
    fn default() -> Self {
        Self { seq_len: 1024, max_accuracy_loss: 0.01, num_threads: 2 }
    }
}

/// One evaluated design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluatedPoint {
    /// The candidate configuration.
    pub point: DesignPoint,
    /// Estimated task accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Simulated end-to-end latency in milliseconds.
    pub latency_ms: f64,
    /// DSPs required by the design.
    pub dsps: u64,
    /// BRAMs required by the design.
    pub brams: u64,
}

/// The outcome of a co-design run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CodesignResult {
    /// Every feasible, evaluated design point.
    pub points: Vec<EvaluatedPoint>,
    /// Indices (into `points`) of the Pareto-optimal designs, sorted by latency.
    pub pareto: Vec<usize>,
    /// Index of the chosen design: the fastest Pareto point whose accuracy
    /// loss is within the constraint, if any.
    pub chosen: Option<usize>,
    /// Number of raw grid points that were skipped for resource overflow.
    pub infeasible: usize,
    /// The reference accuracy the loss constraint is measured against.
    pub reference_accuracy: f64,
}

impl CodesignResult {
    /// The Pareto-optimal evaluated points, sorted by latency.
    pub fn pareto_front(&self) -> Vec<&EvaluatedPoint> {
        self.pareto.iter().map(|&i| &self.points[i]).collect()
    }

    /// The chosen design, if any satisfies the accuracy constraint.
    pub fn chosen_point(&self) -> Option<&EvaluatedPoint> {
        self.chosen.map(|i| &self.points[i])
    }

    /// The largest latency ratio between a design in the same accuracy band
    /// as the chosen point and the chosen point itself — the paper's "up to
    /// 130x faster than points in the same accuracy range" metric.
    pub fn max_speedup_in_accuracy_band(&self, band: f64) -> Option<f64> {
        let chosen = self.chosen_point()?;
        self.points
            .iter()
            .filter(|p| (p.accuracy - chosen.accuracy).abs() <= band)
            .map(|p| p.latency_ms / chosen.latency_ms)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

/// Runs the co-design grid search.
///
/// Resource-infeasible designs are discarded. Each distinct algorithm config
/// among the remaining points is evaluated once with `estimator` (accuracy),
/// and every point with the `fab-accel` simulator on its own hardware
/// (latency), on up to `options.num_threads` threads of the worker pool, the
/// calling thread being one of them. The result does not depend on the
/// thread count.
pub fn run_codesign<E: AccuracyEstimator + Sync>(
    space: &DesignSpace,
    estimator: &E,
    options: &CodesignOptions,
) -> CodesignResult {
    let candidates = space.enumerate();
    let feasible: Vec<DesignPoint> =
        candidates.iter().filter(|p| resources::check_fits(&p.hardware).is_ok()).cloned().collect();
    let infeasible = candidates.len() - feasible.len();

    // The distinct configs, each with its schedule and the indices of its
    // feasible points.
    let mut configs: Vec<(&ModelConfig, LayerSchedule, Vec<usize>)> = Vec::new();
    for (i, point) in feasible.iter().enumerate() {
        match configs.iter_mut().find(|(model, _, _)| **model == point.model) {
            Some((_, _, members)) => members.push(i),
            None => {
                let schedule =
                    LayerSchedule::from_model(&point.model, ModelKind::FabNet, options.seq_len);
                configs.push((&point.model, schedule, vec![i]));
            }
        }
    }
    // Largest workload first, so that the longest trainings do not start last.
    configs.sort_by_cached_key(|(_, schedule, _)| Reverse(schedule.total_flops()));

    let results: Mutex<Vec<(usize, EvaluatedPoint)>> =
        Mutex::new(Vec::with_capacity(feasible.len()));
    rayon::fork_wide(options.num_threads, configs.len(), |c| {
        let (model, schedule, members) = &configs[c];
        // Phase 1 for the config, then phase 2 for each of its points.
        let accuracy = estimator.estimate(model);
        let evaluated: Vec<(usize, EvaluatedPoint)> = members
            .iter()
            .map(|&i| (i, evaluate_point(&feasible[i], accuracy, schedule)))
            .collect();
        results.lock().expect("results mutex poisoned").extend(evaluated);
    });

    let mut results = results.into_inner().expect("results mutex poisoned");
    // Back to enumeration order, so the stable sort below breaks ties the same
    // way at any thread count.
    results.sort_unstable_by_key(|&(i, _)| i);
    rank(
        results.into_iter().map(|(_, point)| point).collect(),
        infeasible,
        estimator.reference_accuracy(),
        options.max_accuracy_loss,
    )
}

/// Prices `point` in resources and simulates `schedule`, its model's
/// workload, on its hardware.
fn evaluate_point(point: &DesignPoint, accuracy: f64, schedule: &LayerSchedule) -> EvaluatedPoint {
    let usage = resources::estimate(&point.hardware);
    EvaluatedPoint {
        point: point.clone(),
        accuracy,
        latency_ms: Simulator::new(point.hardware.clone()).simulate(schedule).total_ms(),
        dsps: usage.dsps,
        brams: usage.brams,
    }
}

/// Sorts evaluated points by latency (then accuracy, then DSPs), extracts the
/// Pareto front and picks the fastest front point within `max_accuracy_loss`
/// of `reference`.
fn rank(
    mut points: Vec<EvaluatedPoint>,
    infeasible: usize,
    reference: f64,
    max_accuracy_loss: f64,
) -> CodesignResult {
    points.sort_by(|a, b| {
        a.latency_ms
            .partial_cmp(&b.latency_ms)
            .expect("finite latency")
            .then(a.accuracy.partial_cmp(&b.accuracy).expect("finite accuracy"))
            .then(a.dsps.cmp(&b.dsps))
    });

    let accuracy: Vec<f64> = points.iter().map(|p| p.accuracy).collect();
    let latency: Vec<f64> = points.iter().map(|p| p.latency_ms).collect();
    let pareto = pareto_front_indices(&accuracy, &latency);
    let chosen =
        pareto.iter().copied().find(|&i| points[i].accuracy >= reference - max_accuracy_loss);
    CodesignResult { points, pareto, chosen, infeasible, reference_accuracy: reference }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy::{HeuristicAccuracy, TrainedAccuracy};
    use fab_lra::LraTask;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn codesign_produces_a_pareto_front_and_a_choice() {
        let space = DesignSpace::tiny_for_tests();
        let options = CodesignOptions { seq_len: 256, max_accuracy_loss: 0.05, num_threads: 2 };
        let result = run_codesign(&space, &HeuristicAccuracy::lra_text(), &options);
        assert!(!result.points.is_empty());
        assert!(!result.pareto.is_empty());
        let front = result.pareto_front();
        // The front must be sorted by latency and non-decreasing in accuracy.
        for pair in front.windows(2) {
            assert!(pair[0].latency_ms <= pair[1].latency_ms);
            assert!(pair[0].accuracy <= pair[1].accuracy + 1e-9);
        }
        let chosen = result.chosen_point().expect("a design should satisfy a 5% loss budget");
        assert!(chosen.accuracy >= result.reference_accuracy - 0.05);
    }

    /// Counts the `estimate` calls made to the estimator it wraps.
    struct Counting<E> {
        inner: E,
        calls: AtomicUsize,
    }

    impl<E: AccuracyEstimator> AccuracyEstimator for Counting<E> {
        fn estimate(&self, config: &ModelConfig) -> f64 {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.estimate(config)
        }

        fn reference_accuracy(&self) -> f64 {
            self.inner.reference_accuracy()
        }
    }

    /// The sweep as one `estimate` call per design point.
    fn per_point_reference(
        space: &DesignSpace,
        estimator: &impl AccuracyEstimator,
        options: &CodesignOptions,
    ) -> CodesignResult {
        let (mut points, mut infeasible) = (Vec::new(), 0);
        for point in space.enumerate() {
            if resources::check_fits(&point.hardware).is_err() {
                infeasible += 1;
                continue;
            }
            let usage = resources::estimate(&point.hardware);
            let schedule =
                LayerSchedule::from_model(&point.model, ModelKind::FabNet, options.seq_len);
            points.push(EvaluatedPoint {
                accuracy: estimator.estimate(&point.model),
                latency_ms: Simulator::new(point.hardware.clone()).simulate(&schedule).total_ms(),
                dsps: usage.dsps,
                brams: usage.brams,
                point,
            });
        }
        rank(points, infeasible, estimator.reference_accuracy(), options.max_accuracy_loss)
    }

    fn distinct_feasible_configs(space: &DesignSpace) -> usize {
        let mut configs: Vec<ModelConfig> = Vec::new();
        for point in space.enumerate() {
            if resources::check_fits(&point.hardware).is_ok() && !configs.contains(&point.model) {
                configs.push(point.model);
            }
        }
        configs.len()
    }

    /// Sweeps `space` with `inner` behind a call counter: `configs` calls,
    /// and the result of the per-point loop.
    fn check_once_per_config(
        space: &DesignSpace,
        inner: impl AccuracyEstimator + Sync,
        configs: usize,
    ) {
        let options = CodesignOptions { seq_len: 1024, max_accuracy_loss: 0.05, num_threads: 2 };
        let counting = Counting { inner, calls: AtomicUsize::new(0) };
        let result = run_codesign(space, &counting, &options);
        assert_eq!(counting.calls.load(Ordering::Relaxed), configs);
        assert_eq!(result, per_point_reference(space, &counting.inner, &options));
    }

    #[test]
    fn each_algorithm_config_is_estimated_once() {
        let (tiny, lra) = (DesignSpace::tiny_for_tests(), DesignSpace::lra_vcu128());
        assert_eq!((tiny.enumerate().len(), lra.enumerate().len()), (16, 6660));
        check_once_per_config(&tiny, HeuristicAccuracy::lra_text(), 8);
        check_once_per_config(&tiny, TrainedAccuracy::tiny(LraTask::Text, 6), 8);
        let lra_configs = distinct_feasible_configs(&lra);
        assert!(lra_configs <= 60);
        check_once_per_config(&lra, HeuristicAccuracy::lra_text(), lra_configs);
    }

    #[test]
    fn results_are_deterministic_across_thread_counts() {
        let space = DesignSpace::tiny_for_tests();
        let est = HeuristicAccuracy::lra_text();
        let run = |num_threads| {
            run_codesign(
                &space,
                &est,
                &CodesignOptions { seq_len: 128, max_accuracy_loss: 0.05, num_threads },
            )
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
    }

    #[test]
    fn trained_results_are_deterministic_across_thread_counts() {
        // The shrunk space of the trained co-design flow test, with two
        // depths so that two trainings run side by side at two threads.
        let mut space = DesignSpace::tiny_for_tests();
        space.hidden = vec![16];
        space.num_layers = vec![1, 2];
        space.num_abfly = vec![0];
        space.pqk = vec![0];
        space.psv = vec![0];
        let est = TrainedAccuracy::tiny(LraTask::Text, 4);
        let run = |num_threads| {
            run_codesign(
                &space,
                &est,
                &CodesignOptions { seq_len: 32, max_accuracy_loss: 1.0, num_threads },
            )
        };
        let one = run(1);
        assert_eq!(one.points.len(), 4);
        assert_eq!(one, run(2));
    }

    #[test]
    fn tighter_accuracy_constraints_never_pick_faster_designs() {
        let space = DesignSpace::tiny_for_tests();
        let est = HeuristicAccuracy::lra_text();
        let loose = run_codesign(
            &space,
            &est,
            &CodesignOptions { seq_len: 256, max_accuracy_loss: 0.10, num_threads: 2 },
        );
        let tight = run_codesign(
            &space,
            &est,
            &CodesignOptions { seq_len: 256, max_accuracy_loss: 0.01, num_threads: 2 },
        );
        if let (Some(l), Some(t)) = (loose.chosen_point(), tight.chosen_point()) {
            assert!(t.latency_ms >= l.latency_ms);
        }
    }

    #[test]
    fn speedup_within_accuracy_band_is_reported() {
        let space = DesignSpace::tiny_for_tests();
        let est = HeuristicAccuracy::lra_text();
        let result = run_codesign(
            &space,
            &est,
            &CodesignOptions { seq_len: 512, max_accuracy_loss: 0.05, num_threads: 2 },
        );
        let speedup = result.max_speedup_in_accuracy_band(0.02);
        assert!(speedup.unwrap_or(0.0) >= 1.0);
    }
}
