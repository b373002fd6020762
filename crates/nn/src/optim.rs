//! Gradient-descent optimisers operating on parameter bindings.
//!
//! [`Sgd`] and [`Adam`] are the seed optimisers, kept as the reference the
//! fused pair is validated against. [`FusedSgd`] and [`FusedAdamW`] perform
//! the whole update — optional global-norm gradient clipping, decoupled
//! weight decay, moment update and parameter write-back — in a single pass
//! per parameter with no intermediate tensors: gradients are read straight
//! from the tape's buffers ([`Tape::with_grad`]) and moments live in flat
//! reused vectors. With weight decay and clipping off, the fused updates are
//! bit-identical to their reference counterparts.

use crate::param::Bindings;
use fab_tensor::{Tape, Tensor, PAR_GRAIN_OPS};

/// Approximate operations per parameter element of the fused updates, for
/// the workspace fan-out grain: AdamW's two moment updates, bias
/// corrections, square root, divide and decay; SGD's scale, decay and step.
const ADAMW_OPS: u64 = 16;
const SGD_OPS: u64 = 4;
/// Target elements per parallel chunk of a fused update.
const CHUNK_ELEMS: usize = 1 << 13;

/// An optimiser that applies the gradients accumulated on a tape to the
/// parameters bound during the corresponding forward pass.
pub trait Optimizer {
    /// Applies one update step. Must be called after `tape.backward(..)`.
    fn step(&mut self, tape: &Tape, bindings: &Bindings);
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates an SGD optimiser with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics when `lr` is not positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, tape: &Tape, bindings: &Bindings) {
        for (id, param) in bindings.iter() {
            if let Some(grad) = tape.try_grad(*id) {
                param.update(|t| *t = t.sub(&grad.scale(self.lr)));
            }
        }
    }
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

    /// Number of update steps applied so far.
    pub fn steps(&self) -> u64 {
        self.step_count
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

/// Computes the optional global-gradient-norm clip scale: `min(1, c/‖g‖)`
/// over every bound gradient, read without cloning.
fn clip_scale(tape: &Tape, bindings: &Bindings, clip_norm: Option<f32>) -> f32 {
    let Some(c) = clip_norm else { return 1.0 };
    let mut sumsq = 0.0f64;
    for (id, _) in bindings.iter() {
        tape.with_grad(*id, |g| {
            if let Some(g) = g {
                sumsq += g.as_slice().iter().map(|&x| f64::from(x) * f64::from(x)).sum::<f64>();
            }
        });
    }
    let norm = sumsq.sqrt() as f32;
    if norm > c {
        c / norm
    } else {
        1.0
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

/// AdamW with the full update fused into one pass per parameter: gradient
/// clip scaling, first/second moment update, bias correction, decoupled
/// weight decay and parameter write-back happen element-wise in a single
/// sweep, with no intermediate tensors. Large parameters fan the sweep out
/// over the worker pool in chunks.
///
/// With `weight_decay == 0` and clipping disabled the update is
/// bit-identical to the reference [`Adam`] optimiser (same expression
/// order), which the property tests assert.
#[derive(Debug)]
pub struct FusedAdamW {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    clip_norm: Option<f32>,
    step_count: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl FusedAdamW {
    /// Creates a fused AdamW optimiser with the standard betas (0.9, 0.999),
    /// no weight decay and no gradient clipping — i.e. plain Adam, fused.
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
            weight_decay: 0.0,
            clip_norm: None,
            step_count: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Enables decoupled weight decay (the AdamW `θ ← θ − lr·wd·θ` term).
    ///
    /// # Panics
    ///
    /// Panics when `wd` is negative.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        assert!(wd >= 0.0, "weight decay must be non-negative");
        self.weight_decay = wd;
        self
    }

    /// Enables global-gradient-norm clipping at `c`.
    ///
    /// # Panics
    ///
    /// Panics when `c` is not positive.
    pub fn with_clip_norm(mut self, c: f32) -> Self {
        assert!(c > 0.0, "clip norm must be positive");
        self.clip_norm = Some(c);
        self
    }

    /// Number of update steps applied so far.
    pub fn steps(&self) -> u64 {
        self.step_count
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
        let clip = clip_scale(tape, bindings, self.clip_norm);
        let (lr, b1, b2, eps, wd) = (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
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
                        for (((pi, &g0), mi), vi) in
                            p.iter_mut().zip(g.iter()).zip(m.iter_mut()).zip(v.iter_mut())
                        {
                            let gi = g0 * clip;
                            let mn = *mi * b1 + gi * (1.0 - b1);
                            let vn = *vi * b2 + gi * gi * (1.0 - b2);
                            *mi = mn;
                            *vi = vn;
                            let mhat = mn / bias1;
                            let vhat = vn / bias2;
                            let p0 = *pi;
                            let mut pn = p0 - lr * mhat / (vhat.sqrt() + eps);
                            if wd > 0.0 {
                                pn -= lr * wd * p0;
                            }
                            *pi = pn;
                        }
                    });
                });
            });
        }
    }
}

/// Stochastic gradient descent with the update fused into one pass:
/// optional global-norm clip, decoupled weight decay and write-back in a
/// single sweep. With weight decay and clipping off it is bit-identical to
/// the reference [`Sgd`].
#[derive(Debug, Clone)]
pub struct FusedSgd {
    lr: f32,
    weight_decay: f32,
    clip_norm: Option<f32>,
}

impl FusedSgd {
    /// Creates a fused SGD optimiser with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics when `lr` is not positive.
    pub fn new(lr: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self { lr, weight_decay: 0.0, clip_norm: None }
    }

    /// Enables decoupled weight decay.
    ///
    /// # Panics
    ///
    /// Panics when `wd` is negative.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        assert!(wd >= 0.0, "weight decay must be non-negative");
        self.weight_decay = wd;
        self
    }

    /// Enables global-gradient-norm clipping at `c`.
    ///
    /// # Panics
    ///
    /// Panics when `c` is not positive.
    pub fn with_clip_norm(mut self, c: f32) -> Self {
        assert!(c > 0.0, "clip norm must be positive");
        self.clip_norm = Some(c);
        self
    }
}

impl Optimizer for FusedSgd {
    fn step(&mut self, tape: &Tape, bindings: &Bindings) {
        let clip = clip_scale(tape, bindings, self.clip_norm);
        let (lr, wd) = (self.lr, self.weight_decay);
        for (id, param) in bindings.iter() {
            tape.with_grad(*id, |g| {
                let Some(grad) = g else { return };
                param.update(|p| {
                    let update = |p: &mut [f32], g: &[f32]| {
                        for (pi, &g0) in p.iter_mut().zip(g.iter()) {
                            let gi = g0 * clip;
                            let p0 = *pi;
                            let mut pn = p0 - gi * lr;
                            if wd > 0.0 {
                                pn -= lr * wd * p0;
                            }
                            *pi = pn;
                        }
                    };
                    let p = p.as_mut_slice();
                    if p.len() as u64 * SGD_OPS < PAR_GRAIN_OPS {
                        update(p, grad.as_slice());
                    } else {
                        let g = grad.as_slice();
                        rayon::fork_chunks_mut([(p, CHUNK_ELEMS)], |c, [p]| {
                            update(p, &g[c * CHUNK_ELEMS..][..p.len()])
                        });
                    }
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
    fn sgd_descends_a_quadratic() {
        let param = Param::new("w", Tensor::from_vec(vec![1.0, -2.0, 3.0], &[1, 3]).unwrap());
        let mut opt = Sgd::new(0.1);
        let first = quadratic_step(&mut opt, &param);
        for _ in 0..50 {
            quadratic_step(&mut opt, &param);
        }
        let last = quadratic_step(&mut opt, &param);
        assert!(last < first * 1e-3, "loss {first} -> {last}");
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
        assert_eq!(opt.steps(), 202);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn sgd_rejects_non_positive_lr() {
        let _ = Sgd::new(0.0);
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
                "fused AdamW (wd=0, no clip) must match Adam bit for bit"
            );
        }
        assert_eq!(fused.steps(), 25);
    }

    #[test]
    fn fused_sgd_matches_reference_sgd_bit_exactly() {
        let init = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[1, 3]).unwrap();
        let p_ref = Param::new("w", init.clone());
        let p_fused = Param::new("w", init);
        let mut reference = Sgd::new(0.1);
        let mut fused = FusedSgd::new(0.1);
        for _ in 0..25 {
            quadratic_step(&mut reference, &p_ref);
            quadratic_step(&mut fused, &p_fused);
            assert_eq!(p_ref.value().as_slice(), p_fused.value().as_slice());
        }
    }

    #[test]
    fn fused_adamw_descends_a_quadratic() {
        let param = Param::new("w", Tensor::from_vec(vec![1.0, -2.0, 3.0], &[1, 3]).unwrap());
        let mut opt = FusedAdamW::new(0.05).with_weight_decay(1e-3).with_clip_norm(10.0);
        let first = quadratic_step(&mut opt, &param);
        for _ in 0..200 {
            quadratic_step(&mut opt, &param);
        }
        let last = quadratic_step(&mut opt, &param);
        assert!(last < first * 1e-2, "loss {first} -> {last}");
    }

    #[test]
    fn clip_norm_caps_the_applied_gradient() {
        // With a huge gradient and clip 1.0, one SGD step moves the
        // parameter by at most lr * 1.0 in L2 norm.
        let param = Param::new("w", Tensor::from_vec(vec![100.0, -100.0], &[1, 2]).unwrap());
        let before = param.value();
        let mut opt = FusedSgd::new(0.5).with_clip_norm(1.0);
        quadratic_step(&mut opt, &param);
        let after = param.value();
        let moved: f32 = before
            .as_slice()
            .iter()
            .zip(after.as_slice())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!(moved <= 0.5 * 1.0 + 1e-5, "moved {moved} > lr * clip");
    }

    #[test]
    fn weight_decay_shrinks_unused_directions() {
        // Zero gradient + weight decay must still shrink the parameter.
        let param = Param::new("w", Tensor::from_vec(vec![2.0], &[1, 1]).unwrap());
        let mut opt = FusedSgd::new(0.1).with_weight_decay(0.5);
        let tape = Tape::new();
        let mut bindings = Bindings::new();
        let w = param.bind(&tape, &mut bindings);
        let z = tape.scale(w, 0.0);
        let loss = tape.sum(z);
        tape.backward(loss);
        opt.step(&tape, &bindings);
        assert!(param.value().as_slice()[0] < 2.0);
    }
}
