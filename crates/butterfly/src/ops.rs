//! Autodiff integration: butterfly linear transform and Fourier mixing as
//! differentiable tape operators.
//!
//! The operators are built for the arena tape's steady-state training loop:
//! forward values are computed straight into the tape's reused output
//! buffers, the butterfly kernels read the weight parent's value in place
//! ([`ButterflyMatrix::view`]: the tape's `[log2 n, 2 n]` weight tensor is
//! the layout the kernels run on, in the forward and in the backward), and
//! the backward closures accumulate into the tape's gradient buffers through
//! the batched lane kernels, whose work buffers come from the crate's
//! per-thread scratch pool — no allocation once warm. Under
//! [`Tape::backward_reference`](fab_tensor::Tape) the same closures route to
//! the scalar per-row reference kernel, which takes the weight-gradient sum
//! in the same order, so the reference pass is a bit-exact oracle.

use crate::fft::fft2_real_padded_into;
use crate::fourier::fourier_mix_into;
use crate::ButterflyMatrix;
use fab_tensor::{simd, Tape, Tensor, VarId};

/// The butterfly matrix of a weight parent's value, read in place.
fn view(w: &Tensor) -> ButterflyMatrix<&[f32]> {
    ButterflyMatrix::view(w).expect("invalid butterfly weight tensor")
}

/// Records a butterfly linear transform `y = B(x)` on the tape, where the
/// butterfly weights are a trainable `[log2 n, 2 n]` tensor variable and each
/// row of `x` (shape `[rows, n]`) is transformed independently.
///
/// Gradients are computed directly on the factorised form — the dense `n × n`
/// matrix is never materialised, matching the `O(n log n)` compute of the
/// paper's butterfly layers. The backward pass runs sixteen rows per lane
/// tile through [`ButterflyMatrix::backward_rows_into`], which also fixes the
/// order the weight gradient is summed in; under the reference backward it
/// runs the seed's scalar per-row loops instead, with bit-identical results.
///
/// # Panics
///
/// Panics when the weight variable does not have a valid butterfly layout or
/// `x` does not have `n` columns.
pub fn butterfly_linear_op(tape: &Tape, x: VarId, weights: VarId) -> VarId {
    tape.push_custom(
        "butterfly_linear",
        &[x, weights],
        |pv, out| view(pv.get(1)).forward_rows_into(pv.get(0), out),
        Box::new(|ctx| {
            let reference = ctx.reference();
            let (g, pv, gw) = ctx.split();
            let (xv, bfly) = (pv.get(0), view(pv.get(1)));
            let (dx, dw) = gw.into_parent_grad_pair(0, 1);
            if reference {
                bfly.backward_rows_reference_into(xv, g, dx, dw);
            } else {
                bfly.backward_rows_into(xv, g, dx, dw);
            }
        }),
    )
}

/// Records a **fused pad + butterfly + truncate** linear transform: rows of
/// `x` (shape `[rows, d_in]`, `d_in <= n`) are implicitly zero-padded to the
/// transform size, transformed, and truncated to the first `d_out` output
/// columns — one tape node instead of the `zeros`-leaf + `concat_cols` +
/// butterfly + `slice_cols` chain, with no padded tensor ever materialised
/// in either direction. Values and gradients are bit-identical to the
/// unfused chain.
///
/// # Panics
///
/// Panics when the weight variable does not have a valid butterfly layout or
/// `d_in`/`d_out` exceed the transform size.
pub fn butterfly_linear_padded_op(tape: &Tape, x: VarId, weights: VarId, d_out: usize) -> VarId {
    tape.push_custom(
        "butterfly_linear_padded",
        &[x, weights],
        |pv, out| view(pv.get(1)).forward_rows_fused_into(pv.get(0), d_out, &[], out),
        Box::new(move |ctx| {
            let reference = ctx.reference();
            let (g, pv, gw) = ctx.split();
            let (xv, bfly) = (pv.get(0), view(pv.get(1)));
            let (dx, dw) = gw.into_parent_grad_pair(0, 1);
            if reference {
                // Seed-fidelity path: materialise the pads and run the
                // reference batched backward, then accumulate the unpadded
                // gradient slice.
                let n = bfly.size();
                let (rows, d_in) = (xv.rows(), xv.cols());
                let mut xpad = Tensor::zeros(&[rows, n]);
                for (prow, row) in xpad.as_mut_slice().chunks_mut(n).zip(xv.as_slice().chunks(d_in))
                {
                    prow[..d_in].copy_from_slice(row);
                }
                let mut gpad = Tensor::zeros(&[rows, n]);
                for (prow, row) in gpad.as_mut_slice().chunks_mut(n).zip(g.as_slice().chunks(d_out))
                {
                    prow[..d_out].copy_from_slice(row);
                }
                let (gx, gwt) = bfly.backward_rows_reference(&xpad, &gpad);
                for (drow, grow) in dx.chunks_mut(d_in).zip(gx.as_slice().chunks(n)) {
                    for (d, &v) in drow.iter_mut().zip(grow[..d_in].iter()) {
                        *d += v;
                    }
                }
                for (d, &v) in dw.iter_mut().zip(gwt.as_slice().iter()) {
                    *d += v;
                }
            } else {
                bfly.backward_rows_padded_into(xv, g, dx, dw);
            }
        }),
    )
}

/// Records the FNet 2-D Fourier token-mixing transform on the tape.
///
/// The operation has no trainable parameters; its backward pass applies the
/// same transform to the upstream gradient (the map is self-adjoint),
/// staging the result in a buffer of the crate's per-thread scratch pool
/// before adding it into the parent gradient buffer.
pub fn fourier_mix_op(tape: &Tape, x: VarId) -> VarId {
    tape.push_custom(
        "fourier_mix",
        &[x],
        |pv, out| fourier_mix_into(pv.get(0), out),
        Box::new(|ctx| {
            let (g, _, mut gw) = ctx.split();
            crate::with_scratch(g.len(), |fg| {
                fft2_real_padded_into(g.as_slice(), g.rows(), g.cols(), fg);
                simd::add_acc(gw.parent_grad(0), fg);
            });
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fab_tensor::check_gradient;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn butterfly_op_forward_matches_reference() {
        let mut rng = StdRng::seed_from_u64(9);
        let bfly = ButterflyMatrix::random(8, &mut rng).unwrap();
        let tape = Tape::new();
        let x =
            Tensor::from_vec((0..16).map(|i| (i as f32 * 0.21).sin()).collect(), &[2, 8]).unwrap();
        let xv = tape.leaf(x.clone());
        let wv = tape.leaf(bfly.to_weight_tensor());
        let y = butterfly_linear_op(&tape, xv, wv);
        assert!(tape.value(y).allclose(&bfly.forward_rows(&x), 1e-5));
    }

    #[test]
    fn butterfly_op_input_gradient_checks() {
        let mut rng = StdRng::seed_from_u64(13);
        let bfly = ButterflyMatrix::random(8, &mut rng).unwrap();
        let w = bfly.to_weight_tensor();
        let x =
            Tensor::from_vec((0..16).map(|i| (i as f32 * 0.37).cos()).collect(), &[2, 8]).unwrap();
        let ok = check_gradient(
            |tape, xv| {
                let wv = tape.leaf(w.clone());
                let y = butterfly_linear_op(tape, xv, wv);
                tape.sum(y)
            },
            &x,
            1e-2,
        );
        assert!(ok);
    }

    #[test]
    fn butterfly_op_weight_gradient_checks() {
        let mut rng = StdRng::seed_from_u64(19);
        let bfly = ButterflyMatrix::random(4, &mut rng).unwrap();
        let w = bfly.to_weight_tensor();
        let x = Tensor::from_vec(vec![0.3, -0.8, 0.5, 1.2, -0.1, 0.4, 0.9, -0.6], &[2, 4]).unwrap();
        let ok = check_gradient(
            |tape, wv| {
                let xv = tape.leaf(x.clone());
                let y = butterfly_linear_op(tape, xv, wv);
                tape.sum(y)
            },
            &w,
            1e-2,
        );
        assert!(ok);
    }

    #[test]
    fn fourier_op_gradient_checks() {
        let x =
            Tensor::from_vec((0..32).map(|i| (i as f32 * 0.11).sin()).collect(), &[8, 4]).unwrap();
        let ok = check_gradient(
            |tape, xv| {
                let y = fourier_mix_op(tape, xv);
                let w = tape.leaf(
                    Tensor::from_vec(
                        (0..32).map(|i| ((i * 7 % 13) as f32) * 0.1 - 0.5).collect(),
                        &[8, 4],
                    )
                    .unwrap(),
                );
                let z = tape.mul(y, w);
                tape.sum(z)
            },
            &x,
            2e-2,
        );
        assert!(ok);
    }

    /// The fused pad+butterfly+truncate op must match the explicit
    /// `concat(zeros) → butterfly → slice` chain in value and in every
    /// gradient, on both the fused and the reference backward. The chain
    /// pads and trims with tensors: the input is zero-padded before it is
    /// recorded, the loss sees only the first `d_out` columns through a 0/1
    /// mask, and `dx` is the padded input's gradient cut back to `d_in`.
    #[test]
    fn padded_op_matches_unfused_chain() {
        let mut rng = StdRng::seed_from_u64(31);
        let n = 16;
        let bfly = ButterflyMatrix::random(n, &mut rng).unwrap();
        let w = bfly.to_weight_tensor();
        for (d_in, d_out, rows) in [(12, 6, 3), (16, 16, 2), (5, 16, 4), (16, 3, 1)] {
            let x = Tensor::from_vec(
                (0..rows * d_in).map(|i| ((i * 13 % 17) as f32) * 0.11 - 0.8).collect(),
                &[rows, d_in],
            )
            .unwrap();

            // Fused op.
            let tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let wv = tape.leaf(w.clone());
            let y = butterfly_linear_padded_op(&tape, xv, wv, d_out);
            let loss = tape.sum(y);
            tape.backward(loss);
            let (fval, fdx, fdw) = (tape.value(y), tape.grad(xv), tape.grad(wv));
            tape.backward_reference(loss);
            let (rdx, rdw) = (tape.grad(xv), tape.grad(wv));

            // Unfused chain.
            let padded = match Tensor::zeros(&[rows, n - d_in]) {
                zeros if d_in < n => Tensor::concat_cols(&[&x, &zeros]),
                _ => x.clone(),
            };
            let mask = Tensor::from_vec(
                (0..rows * n).map(|i| if i % n < d_out { 1.0 } else { 0.0 }).collect(),
                &[rows, n],
            )
            .unwrap();
            let tape2 = Tape::new();
            let xv2 = tape2.leaf(padded);
            let wv2 = tape2.leaf(w.clone());
            let full = butterfly_linear_op(&tape2, xv2, wv2);
            let masked = tape2.mul(full, tape2.leaf(mask));
            let loss2 = tape2.sum(masked);
            tape2.backward(loss2);
            let trimmed = tape2.value(full).slice_cols(0, d_out);

            assert_eq!(fval, trimmed, "value mismatch at {d_in}/{d_out}");
            assert_eq!(fdx, tape2.grad(xv2).slice_cols(0, d_in), "dx mismatch at {d_in}/{d_out}");
            assert_eq!(fdw, tape2.grad(wv2), "dw mismatch at {d_in}/{d_out}");
            assert_eq!(fdx, rdx, "fused vs reference dx mismatch at {d_in}/{d_out}");
            assert_eq!(fdw, rdw, "fused vs reference dw mismatch at {d_in}/{d_out}");
        }
    }

    /// Fused and reference backward must agree bit-for-bit on the plain op.
    #[test]
    fn fused_backward_matches_reference_backward() {
        let mut rng = StdRng::seed_from_u64(37);
        for n in [4usize, 8, 32] {
            let bfly = ButterflyMatrix::random(n, &mut rng).unwrap();
            let w = bfly.to_weight_tensor();
            let x = Tensor::from_vec(
                (0..3 * n).map(|i| ((i * 7 % 23) as f32) * 0.09 - 1.0).collect(),
                &[3, n],
            )
            .unwrap();
            let tape = Tape::new();
            let xv = tape.leaf(x);
            let wv = tape.leaf(w);
            let y = butterfly_linear_op(&tape, xv, wv);
            let loss = tape.sum(y);
            tape.backward(loss);
            let (fdx, fdw) = (tape.grad(xv), tape.grad(wv));
            tape.backward_reference(loss);
            assert_eq!(fdx, tape.grad(xv), "dx mismatch at n={n}");
            assert_eq!(fdw, tape.grad(wv), "dw mismatch at n={n}");
        }
    }
}
