//! Property-based tests of the tensor and autodiff substrate.

use fab_tensor::{check_gradient, Tensor};
use proptest::prelude::*;

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-2.0f32..2.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(data, &[rows, cols]).expect("valid shape"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn matmul_distributes_over_addition(a in small_matrix(3, 4), b in small_matrix(4, 2), c in small_matrix(4, 2)) {
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }

    #[test]
    fn transpose_of_product_is_reversed_product(a in small_matrix(3, 4), b in small_matrix(4, 5)) {
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.allclose(&rhs, 1e-3));
    }

    #[test]
    fn softmax_rows_are_probability_distributions(a in small_matrix(4, 6)) {
        let s = a.softmax_rows();
        for i in 0..4 {
            let row_sum: f32 = (0..6).map(|j| s.at(i, j)).sum();
            prop_assert!((row_sum - 1.0).abs() < 1e-4);
            prop_assert!((0..6).all(|j| s.at(i, j) >= 0.0));
        }
    }

    #[test]
    fn layer_norm_output_is_standardised(a in small_matrix(3, 8)) {
        let out = a.layer_norm_rows(&Tensor::ones(&[8]), &Tensor::zeros(&[8]), 1e-5);
        for i in 0..3 {
            let mean: f32 = (0..8).map(|j| out.at(i, j)).sum::<f32>() / 8.0;
            prop_assert!(mean.abs() < 1e-3);
        }
    }

    #[test]
    fn slice_concat_roundtrip_preserves_data(a in small_matrix(3, 6), split in 1usize..5) {
        let left = a.slice_cols(0, split);
        let right = a.slice_cols(split, 6);
        prop_assert_eq!(Tensor::concat_cols(&[&left, &right]), a);
    }

    #[test]
    fn analytic_gradients_match_finite_differences_for_composite_ops(a in small_matrix(2, 3)) {
        let ok = check_gradient(
            |tape, x| {
                let s = tape.attention(x, x, x, 1);
                let g = tape.gelu(s);
                tape.sum(g)
            },
            &a,
            2e-2,
        );
        prop_assert!(ok);
    }
}
