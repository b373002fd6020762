//! Integration test of the co-design flow (Fig. 15 / Fig. 18): the joint
//! sweep must reproduce the paper's qualitative outcome — a pure-FBfly FABNet
//! with a wide Butterfly Processor and no Attention Processor is chosen for
//! the long-sequence LRA-Text workload — and the trained-accuracy path must
//! plug into the same machinery.

use fabnet::codesign::{run_codesign, TrainedAccuracy};
use fabnet::prelude::*;

#[test]
fn lra_text_codesign_reproduces_the_papers_chosen_design_shape() {
    let space = DesignSpace::lra_vcu128();
    let estimator = HeuristicAccuracy::lra_text();
    let options = CodesignOptions { seq_len: 1024, max_accuracy_loss: 0.01, num_threads: 2 };
    let result = run_codesign(&space, &estimator, &options);

    assert!(result.points.len() > 100, "expected a substantial feasible space");
    assert!(result.infeasible > 0, "resource filtering should reject some designs");

    let chosen = result.chosen_point().expect("a design must satisfy the 1% constraint");
    // Section VI-C: the chosen designs use the full-width Butterfly Processor
    // (P_be = 64 or more at P_bu = 4) and no Attention Processor units.
    assert!(chosen.point.hardware.num_be >= 64, "chosen P_be {}", chosen.point.hardware.num_be);
    assert_eq!(chosen.point.hardware.pqk, 0);
    assert_eq!(chosen.point.hardware.psv, 0);
    assert_eq!(chosen.point.model.num_abfly, 0, "LRA-Text should not need ABfly blocks");
    // Accuracy constraint is respected.
    assert!(chosen.accuracy >= result.reference_accuracy - options.max_accuracy_loss);

    // Fig. 18's headline: within the explored space, the chosen point is much
    // faster than other points in the same accuracy band.
    let speedup = result.max_speedup_in_accuracy_band(0.02).unwrap_or(1.0);
    assert!(speedup > 10.0, "expected a large latency spread, got {speedup:.1}x");
}

#[test]
fn every_pareto_point_fits_the_target_fpga() {
    let space = DesignSpace::tiny_for_tests();
    let result = run_codesign(
        &space,
        &HeuristicAccuracy::lra_image(),
        &CodesignOptions { seq_len: 256, max_accuracy_loss: 0.05, num_threads: 2 },
    );
    for p in result.pareto_front() {
        assert!(fabnet::accel::resources::check_fits(&p.point.hardware).is_ok());
        assert!(p.dsps <= space.device.dsps);
    }
}

#[test]
fn trained_accuracy_estimator_drives_the_sweep_at_tiny_scale() {
    // The faithful (training-based) accuracy path, shrunk to a couple of
    // candidates so it runs in seconds.
    let mut space = DesignSpace::tiny_for_tests();
    space.hidden = vec![16];
    space.ffn_ratio = vec![2];
    space.num_layers = vec![1];
    space.num_abfly = vec![0];
    space.num_be = vec![16, 64];
    space.pqk = vec![0];
    space.psv = vec![0];
    let estimator = TrainedAccuracy::tiny(LraTask::Text, 4);
    let options = CodesignOptions { seq_len: 32, max_accuracy_loss: 1.0, num_threads: 1 };
    let result = run_codesign(&space, &estimator, &options);
    assert_eq!(result.points.len(), 2);
    // Same model on both hardware points: one training serves both, so the
    // accuracy is identical and only the latency differs.
    assert!((result.points[0].accuracy - result.points[1].accuracy).abs() < 1e-9);
    assert!(result.points[0].latency_ms < result.points[1].latency_ms);
    assert!(result.chosen_point().is_some());
}
