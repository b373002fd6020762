//! The multi-head attention core as one forward / backward kernel pair:
//! `softmax(c · q_h·k_hᵀ) · v_h` for every head `h` of one sequence's
//! projected `[len, dim]` q, k and v, and its gradient. The frozen forward
//! and the tape's attention op both run [`forward`], so their values agree
//! by construction; `backward` recomputes the probabilities tile by tile
//! (FlashAttention's backward, Dao et al. 2022), so neither pass keeps a
//! `[len, len]` matrix.

use crate::simd::{self, Backend};
use crate::{Tensor, PAR_GRAIN_OPS};

/// Query rows a band of the core hands `simd::attention_tile` (and the
/// backward `simd::attention_tile_backward`) at a time, for one head: a
/// tile's scores are `[len, 32]` at most — 128 KiB at `len` 1024 — so they
/// are still in L2 when the softmax and the product with V read what the
/// product with Kᵀ wrote.
pub const SUB_ROWS: usize = 32;

/// Most bands [`forward`] cuts a sequence's query rows into — the items of
/// its one pool call, and the slots of its scratch: `MAX_BANDS` tiles'
/// scratch, `8 · 32 · (len + head_dim) · 4` bytes on an AVX-512 host.
const MAX_BANDS: usize = 8;

/// Query rows per band of [`forward`] for a `len`-row sequence: a whole
/// number of sub-tiles, at most [`MAX_BANDS`] bands. A function of `len`
/// alone — never of the thread count — although no value could tell: a row
/// of scores, its softmax and its product with V never involve another row.
fn band_rows(len: usize) -> usize {
    len.div_ceil(MAX_BANDS).next_multiple_of(SUB_ROWS)
}

/// Nominal operations of the forward core — `Q·Kᵀ`, softmax and `S·V`
/// over all heads, `fab_butterfly::flops::attention_core_flops` — which
/// the fan-out decisions compare against [`PAR_GRAIN_OPS`].
fn core_ops(len: usize, dim: usize) -> u64 {
    let (len, dim) = (len as u64, dim as u64);
    4 * len * len * dim + 5 * len * len
}

/// Checks the core's shapes; returns `(len, dim, head_dim)`.
fn shape(q: &Tensor, k: &Tensor, v: &Tensor, num_heads: usize) -> (usize, usize, usize) {
    let (len, dim) = (q.rows(), q.cols());
    assert!(
        num_heads > 0 && dim.is_multiple_of(num_heads),
        "heads must divide the feature dimension"
    );
    assert_eq!((k.rows(), k.cols()), (len, dim), "attention key shape mismatch");
    assert_eq!((v.rows(), v.cols()), (len, dim), "attention value shape mismatch");
    (len, dim, dim / num_heads)
}

/// The f32 attention core on one sequence's `[len, dim]` q/k/v, scattering
/// the mixed heads into `out` (`len · dim` values, the heads side by side).
/// An empty sequence writes nothing.
///
/// `prescaled` says the query was already multiplied by `1/√head_dim` (the
/// fast-math path's `(c·q)·kᵀ` ordering); otherwise the raw scores are
/// scaled, `c·(q·kᵀ)`. The query rows are cut into bands (`band_rows`)
/// that share nothing but the read-only K and V: one pool call over the
/// bands when the core reaches [`PAR_GRAIN_OPS`], a plain loop below it. A
/// band runs `simd::attention_tile` once per head and [`SUB_ROWS`] query
/// rows, on `backend`, which reads K and V in place and gives the bits of
/// the per-head `softmax(c · q_h·k_hᵀ) · v_h` of the whole-tensor kernels.
/// Neither the cut nor the fan-out is part of the value. `tiles` is the
/// tiles' scratch, one slot per band, sized here for `backend`, so a warm
/// call allocates nothing below the grain and the pool call's bookkeeping
/// above it.
///
/// # Panics
///
/// Panics when the shapes are inconsistent or `num_heads` does not divide
/// the feature dimension.
#[allow(clippy::too_many_arguments)]
pub fn forward(
    backend: Backend,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    num_heads: usize,
    prescaled: bool,
    out: &mut [f32],
    tiles: &mut Tensor,
) {
    let (len, dim, head_dim) = shape(q, k, v, num_heads);
    assert_eq!(out.len(), len * dim, "attention output length mismatch");
    if out.is_empty() {
        return;
    }
    let band_rows = band_rows(len);
    let slot = simd::attention_tile_scratch(backend, SUB_ROWS.min(len), len, head_dim);
    tiles.resize_to(&[len.div_ceil(band_rows), slot]);
    let (q, k, v) = (q.as_slice(), k.as_slice(), v.as_slice());
    let scale = (!prescaled).then(|| 1.0 / (head_dim as f32).sqrt());
    // Band `b` owns rows `b · band_rows ..` of `out` and slot `b` of the
    // scratch. Head by head, it mixes its rows `SUB_ROWS` at a time.
    let run = |b: usize, [out, scratch]: [&mut [f32]; 2]| {
        let q = &q[b * band_rows * dim..][..out.len()];
        for col in (0..dim).step_by(head_dim) {
            let tiles = q.chunks(SUB_ROWS * dim).zip(out.chunks_mut(SUB_ROWS * dim));
            for (q, out) in tiles {
                simd::attention_tile(backend, q, k, v, dim, col, head_dim, scale, scratch, out);
            }
        }
    };
    let (band_len, tiles) = (band_rows * dim, tiles.as_mut_slice());
    if core_ops(len, dim) < PAR_GRAIN_OPS {
        for (b, bands) in out.chunks_mut(band_len).zip(tiles.chunks_mut(slot)).enumerate() {
            run(b, [bands.0, bands.1]);
        }
    } else {
        rayon::fork_chunks_mut([(out, band_len), (tiles, slot)], run);
    }
}

/// Floats of one head's slot in [`backward`]'s scratch on `backend`: the
/// head's K and scaled Vᵀ, its dQ, dKᵀ and dVᵀ (`len · head_dim` each); one
/// tile's `P` and dP (`rows · len` each), gathered dout, doutᵀ and qᵀ and
/// `Σ dout ∘ o`; and the scratch of [`simd::attention_probs`].
fn head_slot(backend: Backend, len: usize, head_dim: usize) -> usize {
    let rows = SUB_ROWS.min(len);
    5 * len * head_dim
        + rows * (2 * len + 3 * head_dim + 1)
        + simd::attention_tile_scratch(backend, rows, len, head_dim)
}

/// The gradient of [`forward`] (not prescaled): given the forward's inputs,
/// its output `o` and the output's gradient `dout`, writes (not adds) dQ,
/// dK and dV, each `len · dim`, one after the other into `grads`.
///
/// Each head runs on its own slot of `scratch`. It gathers its K and Vᵀ
/// once, then takes its query rows [`SUB_ROWS`] at a time, tiles
/// ascending: `simd::attention_probs` recomputes the tile's
/// probabilities — the forward's tiles, so the forward's bits — and
/// `simd::attention_tile_backward` writes the tile's rows of dQ and adds
/// its share to the head's dK and dV. dK and dV so add up over the tiles
/// in one fixed order. The scores' scale `c` is folded into the tile's
/// operands: Vᵀ is gathered times `c`, and `Σ dout ∘ o` enters negated and
/// times `c`. The heads share nothing but the read-only inputs: one pool
/// call over the heads at the grain, a loop below it; either way each
/// head's sums are those of one thread, so the gradients do not depend on
/// the thread count. The heads' results are then scattered into `grads`.
///
/// # Panics
///
/// Panics when the shapes are inconsistent or `grads` does not hold
/// `3 · len · dim` values.
#[allow(clippy::too_many_arguments)]
pub(crate) fn backward(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    o: &Tensor,
    dout: &Tensor,
    num_heads: usize,
    scratch: &mut Tensor,
    grads: &mut [f32],
) {
    let (len, dim, head_dim) = shape(q, k, v, num_heads);
    assert_eq!((o.rows(), o.cols()), (len, dim), "attention output shape mismatch");
    assert_eq!((dout.rows(), dout.cols()), (len, dim), "attention gradient shape mismatch");
    assert_eq!(grads.len(), 3 * len * dim, "attention gradient length mismatch");
    if len == 0 {
        return;
    }
    let backend = simd::backend();
    let (hl, slot) = (len * head_dim, head_slot(backend, len, head_dim));
    scratch.resize_to(&[num_heads, slot]);
    let (q, k, v) = (q.as_slice(), k.as_slice(), v.as_slice());
    let (o, dout) = (o.as_slice(), dout.as_slice());
    let c = 1.0 / (head_dim as f32).sqrt();
    let run = |h: usize, [slot]: [&mut [f32]; 1]| {
        let col = h * head_dim;
        let head = |r: usize| r * dim + col..r * dim + col + head_dim;
        let (kh, rest) = slot.split_at_mut(hl);
        let (cvt, rest) = rest.split_at_mut(hl);
        let (dq, rest) = rest.split_at_mut(hl);
        let (dkt, rest) = rest.split_at_mut(hl);
        let (dvt, rest) = rest.split_at_mut(hl);
        for (key, kh) in kh.chunks_exact_mut(head_dim).enumerate() {
            kh.copy_from_slice(&k[head(key)]);
            for (j, &x) in v[head(key)].iter().enumerate() {
                cvt[j * len + key] = c * x;
            }
        }
        dq.fill(0.0);
        dkt.fill(0.0);
        dvt.fill(0.0);
        for (t, dq) in dq.chunks_mut(SUB_ROWS * head_dim).enumerate() {
            let (r0, n) = (t * SUB_ROWS, dq.len() / head_dim);
            let (p, rest) = rest.split_at_mut(n * len);
            let (dp, rest) = rest.split_at_mut(n * len);
            let (gt, rest) = rest.split_at_mut(n * head_dim);
            let (gtt, rest) = rest.split_at_mut(n * head_dim);
            let (qtt, rest) = rest.split_at_mut(n * head_dim);
            let (delta, probs) = rest.split_at_mut(n);
            let rows = &q[r0 * dim..(r0 + n) * dim];
            simd::attention_probs(backend, rows, k, dim, col, head_dim, Some(c), probs, p);
            for (i, r) in (r0..r0 + n).enumerate() {
                gt[i * head_dim..][..head_dim].copy_from_slice(&dout[head(r)]);
                for (j, (&g, &x)) in dout[head(r)].iter().zip(&q[head(r)]).enumerate() {
                    gtt[j * n + i] = g;
                    qtt[j * n + i] = x;
                }
                let terms = dout[head(r)].iter().zip(&o[head(r)]);
                delta[i] = -c * terms.fold(0.0, |acc, (&g, &o)| acc + g * o);
            }
            simd::attention_tile_backward(
                p,
                [gt, gtt, qtt, delta],
                [kh, cvt],
                dp,
                [dq, &mut *dkt, &mut *dvt],
            );
        }
    };
    let heads = scratch.as_mut_slice();
    // About two and a half forwards' work; the fan-out only has to pay off.
    if 5 * core_ops(len, dim) / 2 < PAR_GRAIN_OPS {
        for (h, slot) in heads.chunks_mut(slot).enumerate() {
            run(h, [slot]);
        }
    } else {
        rayon::fork_chunks_mut([(heads, slot)], run);
    }
    let (dq, dkv) = grads.split_at_mut(len * dim);
    for (h, slot) in scratch.as_slice().chunks(slot).enumerate() {
        let col = h * head_dim;
        let [dqh, dkvt] = [&slot[2 * hl..3 * hl], &slot[3 * hl..5 * hl]];
        for (row, src) in dq.chunks_exact_mut(dim).zip(dqh.chunks_exact(head_dim)) {
            row[col..col + head_dim].copy_from_slice(src);
        }
        // dKᵀ then dVᵀ, `[head_dim, len]` each, into the columns of dK, dV.
        for (j, src) in dkvt.chunks_exact(len).enumerate() {
            let (part, c) = (j / head_dim, col + j % head_dim);
            for (r, &x) in src.iter().enumerate() {
                dkv[part * len * dim + r * dim + c] = x;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{with_rayon_threads, Tape, Tensor, VarId};

    /// `[rows, cols]` of a smooth, seed-dependent pattern in about ±1.5.
    fn pattern(rows: usize, cols: usize, seed: usize) -> Tensor {
        let data =
            (0..rows * cols).map(|i| ((i * 7 + seed * 13) as f32 * 0.61).sin() * 1.5).collect();
        Tensor::from_vec(data, &[rows, cols]).unwrap()
    }

    /// Records `y = attention(q, k, v)` and `sum(y ∘ w)`; returns the
    /// loss, `y` and the three input leaves.
    fn record(tape: &Tape, qkv: &[Tensor; 3], w: &Tensor, heads: usize) -> [VarId; 5] {
        let [q, k, v] = [0, 1, 2].map(|i| tape.leaf(qkv[i].clone()));
        let y = tape.attention(q, k, v, heads);
        let loss = tape.sum(tape.mul(y, tape.leaf(w.clone())));
        [loss, y, q, k, v]
    }

    /// Lengths on both sides of the tile edge and of two tiles, with heads
    /// 16 and 32 wide (and one narrower than a vector).
    const SHAPES: [(usize, usize); 5] = [(32, 2), (64, 2), (48, 3), (64, 4), (5, 1)];
    const LENS: [usize; 8] = [1, 2, 31, 32, 33, 64, 65, 100];

    /// The value is the per-head `softmax(c · q·kᵀ) · v` of whole-tensor
    /// ops bit for bit, and the gradients are the reference backward's —
    /// the same sums untiled, every `[len, len]` matrix materialised — bit
    /// for bit.
    #[test]
    fn the_op_is_the_per_head_chain() {
        // Compares bits across kernels: no backend switch meanwhile.
        let _g = crate::simd::tests::guard();
        for (dim, heads) in SHAPES {
            let head_dim = dim / heads;
            for len in LENS {
                let qkv = [0, 1, 2].map(|s| pattern(len, dim, s));
                let w = pattern(len, dim, 3);
                let tape = Tape::new();
                let [loss, y, leaves @ ..] = record(&tape, &qkv, &w, heads);
                let mut chain = Tensor::zeros(&[len, dim]);
                for lo in (0..dim).step_by(head_dim) {
                    let [q, k, v] = [0, 1, 2].map(|i| qkv[i].slice_cols(lo, lo + head_dim));
                    let scores = q.matmul(&k.transpose()).scale(1.0 / (head_dim as f32).sqrt());
                    let head = scores.softmax_rows().matmul(&v);
                    for (row, src) in
                        chain.as_mut_slice().chunks_mut(dim).zip(head.as_slice().chunks(head_dim))
                    {
                        row[lo..lo + head_dim].copy_from_slice(src);
                    }
                }
                assert!(tape.value(y) == chain, "value, len {len} dim {dim} heads {heads}");
                tape.backward(loss);
                let fused = leaves.map(|l| tape.grad(l));
                tape.backward_reference(loss);
                let reference = leaves.map(|l| tape.grad(l));
                assert!(fused == reference, "grads, len {len} dim {dim} heads {heads}");
            }
        }
    }

    /// Central differences along random directions, in f64 over the f32
    /// forward, against the analytic directional derivative.
    #[test]
    fn gradcheck_across_tile_and_head_edges() {
        let loss_at = |qkv: &[Tensor; 3], w: &Tensor, heads: usize| -> f64 {
            let tape = Tape::new();
            let leaves = [0, 1, 2].map(|i| tape.leaf(qkv[i].clone()));
            let y = tape.value(tape.attention(leaves[0], leaves[1], leaves[2], heads));
            y.as_slice().iter().zip(w.as_slice()).map(|(&a, &b)| f64::from(a) * f64::from(b)).sum()
        };
        for (dim, heads) in SHAPES {
            for len in [1, 31, 33, 65] {
                let qkv = [0, 1, 2].map(|s| pattern(len, dim, s));
                let w = pattern(len, dim, 3);
                let tape = Tape::new();
                let [loss, _, leaves @ ..] = record(&tape, &qkv, &w, heads);
                tape.backward(loss);
                for (input, &leaf) in leaves.iter().enumerate() {
                    let grad = tape.grad(leaf);
                    let u = pattern(len, dim, 7 + input);
                    let analytic: f64 = (grad.as_slice().iter().zip(u.as_slice()))
                        .map(|(&g, &u)| f64::from(g) * f64::from(u))
                        .sum();
                    let eps = 1e-2f32;
                    let shifted = |sign: f32| {
                        let mut moved = qkv.clone();
                        for (x, &d) in moved[input].as_mut_slice().iter_mut().zip(u.as_slice()) {
                            *x += sign * eps * d;
                        }
                        loss_at(&moved, &w, heads)
                    };
                    let numeric = (shifted(1.0) - shifted(-1.0)) / (2.0 * f64::from(eps));
                    assert!(
                        (numeric - analytic).abs() <= 1e-2 * (1.0 + analytic.abs()),
                        "input {input}, len {len} dim {dim} heads {heads}: {numeric} vs {analytic}"
                    );
                }
            }
        }
    }

    /// Past the fan-out grain the heads' backward runs on the pool; every
    /// gradient keeps its bits at any thread count.
    #[test]
    fn the_gradients_do_not_depend_on_the_thread_count() {
        let _g = crate::simd::tests::guard();
        let (len, dim, heads) = (257, 64, 4);
        assert!(super::core_ops(len, dim) >= crate::PAR_GRAIN_OPS);
        let qkv = [0, 1, 2].map(|s| pattern(len, dim, s));
        let w = pattern(len, dim, 3);
        let grads = |threads: usize| {
            with_rayon_threads(threads, || {
                let tape = Tape::new();
                let [loss, _, leaves @ ..] = record(&tape, &qkv, &w, heads);
                tape.backward(loss);
                leaves.map(|l| tape.grad(l))
            })
        };
        let one = grads(1);
        for threads in [2, 5] {
            assert!(grads(threads) == one, "{threads} threads");
        }
    }
}
