//! Gradient-descent optimisers operating on parameter bindings.
//!
//! [`Adam`] is the seed optimiser, kept as the reference [`FusedAdamW`] is
//! validated against. [`FusedAdamW`] performs the whole update — moment
//! update, bias correction and parameter write-back — in a single pass per
//! parameter with no intermediate tensors: gradients are read straight from
//! the tape's buffers ([`Tape::with_grad`]) and moments live in flat reused
//! vectors. It is bit-identical to [`Adam`].

use crate::param::Bindings;
use fab_tensor::{Tape, Tensor, PAR_GRAIN_OPS};

/// Approximate operations per parameter element of the fused update, for
/// the workspace fan-out grain: two moment updates, bias corrections,
/// square root, divide and step.
const ADAMW_OPS: u64 = 16;
/// Target elements per parallel chunk of a fused update.
const CHUNK_ELEMS: usize = 1 << 13;

/// An optimiser that applies the gradients accumulated on a tape to the
/// parameters bound during the corresponding forward pass.
pub trait Optimizer {
    /// Applies one update step. Must be called after `tape.backward(..)`.
    fn step(&mut self, tape: &Tape, bindings: &Bindings);
}

/// Adam optimiser (Kingma & Ba) with per-parameter first/second moment state.
///
/// Moment state is keyed by binding order, which is deterministic because
/// every forward pass binds parameters in the same layer order.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step_count: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimiser with the standard betas (0.9, 0.999).
    ///
    /// # Panics
    ///
    /// Panics when `lr` is not positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step_count: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, tape: &Tape, bindings: &Bindings) {
        self.step_count += 1;
        let t = self.step_count as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        for (slot, (id, param)) in bindings.iter().enumerate() {
            let Some(grad) = tape.try_grad(*id) else { continue };
            if self.m.len() <= slot {
                self.m.push(Tensor::zeros(grad.shape()));
                self.v.push(Tensor::zeros(grad.shape()));
            }
            if self.m[slot].shape() != grad.shape() {
                // The binding layout changed (e.g. a different model); reset state.
                self.m[slot] = Tensor::zeros(grad.shape());
                self.v[slot] = Tensor::zeros(grad.shape());
            }
            let m = self.m[slot].scale(self.beta1).add(&grad.scale(1.0 - self.beta1));
            let v = self.v[slot].scale(self.beta2).add(&grad.mul(&grad).scale(1.0 - self.beta2));
            self.m[slot] = m.clone();
            self.v[slot] = v.clone();
            let lr = self.lr;
            let eps = self.eps;
            param.update(|p| {
                let update: Vec<f32> = m
                    .as_slice()
                    .iter()
                    .zip(v.as_slice().iter())
                    .map(|(&mi, &vi)| {
                        let mhat = mi / bias1;
                        let vhat = vi / bias2;
                        lr * mhat / (vhat.sqrt() + eps)
                    })
                    .collect();
                let update = Tensor::from_vec(update, p.shape()).expect("adam update shape");
                *p = p.sub(&update);
            });
        }
    }
}

/// Splits four parameter-length slices into matched chunks and runs `f` over
/// them, in parallel when the parameter's update reaches the fan-out grain.
/// Small (i.e. most) parameters run serially with zero allocation.
fn for_each_update_chunk<F>(p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], f: F)
where
    F: Fn(&mut [f32], &[f32], &mut [f32], &mut [f32]) + Sync,
{
    if p.len() as u64 * ADAMW_OPS < PAR_GRAIN_OPS {
        f(p, g, m, v);
        return;
    }
    rayon::fork_chunks_mut(
        [(p, CHUNK_ELEMS), (m, CHUNK_ELEMS), (v, CHUNK_ELEMS)],
        |c, [p, m, v]| f(p, &g[c * CHUNK_ELEMS..][..p.len()], m, v),
    );
}

/// Adam with the full update fused into one pass per parameter: first/second
/// moment update, bias correction and parameter write-back happen
/// element-wise in a single sweep, with no intermediate tensors. Large
/// parameters fan the sweep out over the worker pool in chunks.
///
/// The update is bit-identical to the reference [`Adam`] optimiser (same
/// expression order), which the property tests assert.
#[derive(Debug)]
pub struct FusedAdamW {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    step_count: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl FusedAdamW {
    /// Creates a fused Adam optimiser with the standard betas (0.9, 0.999).
    ///
    /// # Panics
    ///
    /// Panics when `lr` is not positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            step_count: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Total `f32` capacity of the optimiser's moment buffers; stable across
    /// steady-state steps (asserted by the allocation-reuse tests).
    pub fn state_capacity(&self) -> usize {
        self.m.iter().map(Vec::capacity).sum::<usize>()
            + self.v.iter().map(Vec::capacity).sum::<usize>()
    }
}

impl Optimizer for FusedAdamW {
    fn step(&mut self, tape: &Tape, bindings: &Bindings) {
        self.step_count += 1;
        let t = self.step_count as f32;
        let bias1 = 1.0 - self.beta1.powf(t);
        let bias2 = 1.0 - self.beta2.powf(t);
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        for (slot, (id, param)) in bindings.iter().enumerate() {
            if self.m.len() <= slot {
                self.m.push(Vec::new());
                self.v.push(Vec::new());
            }
            let (m, v) = (&mut self.m[slot], &mut self.v[slot]);
            tape.with_grad(*id, |g| {
                let Some(grad) = g else { return };
                let grad = grad.as_slice();
                if m.len() != grad.len() {
                    // First touch, or the binding layout changed: reset state.
                    m.clear();
                    m.resize(grad.len(), 0.0);
                    v.clear();
                    v.resize(grad.len(), 0.0);
                }
                param.update(|p| {
                    for_each_update_chunk(p.as_mut_slice(), grad, m, v, |p, g, m, v| {
                        for (((pi, &gi), mi), vi) in
                            p.iter_mut().zip(g.iter()).zip(m.iter_mut()).zip(v.iter_mut())
                        {
                            let mn = *mi * b1 + gi * (1.0 - b1);
                            let vn = *vi * b2 + gi * gi * (1.0 - b2);
                            *mi = mn;
                            *vi = vn;
                            let mhat = mn / bias1;
                            let vhat = vn / bias2;
                            *pi -= lr * mhat / (vhat.sqrt() + eps);
                        }
                    });
                });
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use fab_tensor::Tensor;

    fn quadratic_step<O: Optimizer>(opt: &mut O, param: &Param) -> f32 {
        // Minimise f(w) = sum(w^2); gradient is 2w.
        let tape = Tape::new();
        let mut bindings = Bindings::new();
        let w = param.bind(&tape, &mut bindings);
        let sq = tape.mul(w, w);
        let loss = tape.sum(sq);
        tape.backward(loss);
        opt.step(&tape, &bindings);
        tape.value(loss).as_slice()[0]
    }

    #[test]
    fn adam_descends_a_quadratic() {
        let param = Param::new("w", Tensor::from_vec(vec![1.0, -2.0, 3.0], &[1, 3]).unwrap());
        let mut opt = Adam::new(0.05);
        let first = quadratic_step(&mut opt, &param);
        for _ in 0..200 {
            quadratic_step(&mut opt, &param);
        }
        let last = quadratic_step(&mut opt, &param);
        assert!(last < first * 1e-2, "loss {first} -> {last}");
    }

    #[test]
    fn fused_adamw_matches_reference_adam_bit_exactly() {
        let init = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5, -0.25], &[1, 5]).unwrap();
        let p_ref = Param::new("w", init.clone());
        let p_fused = Param::new("w", init);
        let mut reference = Adam::new(0.05);
        let mut fused = FusedAdamW::new(0.05);
        for _ in 0..25 {
            quadratic_step(&mut reference, &p_ref);
            quadratic_step(&mut fused, &p_fused);
            assert_eq!(
                p_ref.value().as_slice(),
                p_fused.value().as_slice(),
                "fused AdamW must match Adam bit for bit"
            );
        }
    }

    #[test]
    fn fused_adamw_descends_a_quadratic() {
        let param = Param::new("w", Tensor::from_vec(vec![1.0, -2.0, 3.0], &[1, 3]).unwrap());
        let mut opt = FusedAdamW::new(0.05);
        let first = quadratic_step(&mut opt, &param);
        for _ in 0..200 {
            quadratic_step(&mut opt, &param);
        }
        let last = quadratic_step(&mut opt, &param);
        assert!(last < first * 1e-2, "loss {first} -> {last}");
    }
}
