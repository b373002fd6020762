//! Reverse-mode automatic differentiation on an arena tape.
//!
//! The tape is built for steady-state training loops: node metadata, value
//! buffers, gradient buffers and parent/index lists all live in flat arenas
//! that are retained across [`Tape::reset`] calls, so re-recording the same
//! graph shape performs no heap allocation once the arenas have warmed up.
//! Backward functions are slice-based and *accumulate* into reusable gradient
//! buffers instead of returning freshly allocated tensors.
//!
//! [`Tape::backward_reference`] keeps the seed's allocating backward path
//! (materialised transposes, per-node gradient tensors, `add`-chained
//! accumulation) alive as a ground-truth oracle and benchmark baseline; the
//! arena backward is validated against it in the property tests.
//!
//! The built-in ops: [`Tape::add`], [`Tape::sub`], [`Tape::mul`],
//! [`Tape::scale`], [`Tape::matmul`], [`Tape::attention`] (multi-head
//! self-attention as one node, on the kernels of [`crate::attention`]),
//! [`Tape::gelu`], [`Tape::layer_norm`], [`Tape::add_row_broadcast`],
//! [`Tape::mean_pool_rows`], [`Tape::sum`], [`Tape::cross_entropy`],
//! [`Tape::embedding`] and [`Tape::embedding_iota`]. Other crates add theirs
//! through [`Tape::push_custom`] (the butterfly and Fourier layers do).

use crate::tensor::gelu_grad_scalar;
use crate::Tensor;
use std::cell::RefCell;

/// Handle to a value recorded on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(usize);

impl VarId {
    /// Returns the position of this variable on its tape.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Backward function of a custom tape node.
///
/// The function receives a [`BackwardCtx`] exposing the upstream gradient,
/// the node value and the parent values, and must *accumulate* (`+=`) each
/// parent's gradient into the slice returned by [`BackwardCtx::parent_grad`]
/// (zero-initialised on first access). [`BackwardCtx::reference`] reports
/// whether the seed-fidelity reference backward is running, letting custom
/// operators route to their unoptimised reference kernels.
pub type BackwardFn = Box<dyn Fn(&mut BackwardCtx<'_>)>;

/// Read-only view of a node's parent values, handed to the value-computing
/// closure of [`Tape::push_custom`] and the built-in forward ops.
pub struct ParentValues<'a> {
    values: &'a [Tensor],
    ids: &'a [usize],
}

impl ParentValues<'_> {
    /// The value of parent `i` (in the order the parents were recorded).
    pub fn get(&self, i: usize) -> &Tensor {
        &self.values[self.ids[i]]
    }

    /// Number of parents.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` when the node has no parents.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Context handed to a custom operator's backward implementation.
pub struct BackwardCtx<'a> {
    upstream: &'a Tensor,
    value: &'a Tensor,
    values: &'a [Tensor],
    parents: &'a [usize],
    grads: &'a mut [Tensor],
    has_grad: &'a mut [bool],
    reference: bool,
}

impl BackwardCtx<'_> {
    /// The gradient of the loss with respect to this node's value.
    pub fn upstream(&self) -> &Tensor {
        self.upstream
    }

    /// The node's forward value.
    pub fn value(&self) -> &Tensor {
        self.value
    }

    /// Number of parents of the node.
    pub fn num_parents(&self) -> usize {
        self.parents.len()
    }

    /// The value of parent `i`.
    pub fn parent(&self, i: usize) -> &Tensor {
        &self.values[self.parents[i]]
    }

    /// `true` when [`Tape::backward_reference`] is running: custom operators
    /// should use their unfused reference kernels so the reference pass
    /// reproduces the seed arithmetic end to end.
    pub fn reference(&self) -> bool {
        self.reference
    }

    /// Accumulation view of parent `i`'s gradient buffer (shaped like the
    /// parent value, zero-initialised on first access). Implementations must
    /// `+=` into it; the same parent may appear more than once.
    pub fn parent_grad(&mut self, i: usize) -> &mut [f32] {
        let p = self.parents[i];
        ensure_grad(self.values, self.grads, self.has_grad, p);
        self.grads[p].as_mut_slice()
    }

    /// Splits the context into the (upstream gradient, node value) pair, a
    /// read view of the parent values, and a [`GradWriter`] — letting a
    /// backward kernel hold parent values and gradient buffers at the same
    /// time.
    pub fn split(&mut self) -> (&Tensor, ParentValues<'_>, GradWriter<'_>) {
        let upstream = self.upstream;
        let (pv, gw) = self.writer();
        (upstream, pv, gw)
    }

    fn writer(&mut self) -> (ParentValues<'_>, GradWriter<'_>) {
        (
            ParentValues { values: self.values, ids: self.parents },
            GradWriter {
                values: self.values,
                parents: self.parents,
                grads: &mut *self.grads,
                has_grad: &mut *self.has_grad,
            },
        )
    }
}

/// Write access to the parent gradient buffers of a custom node, produced by
/// [`BackwardCtx::split`].
pub struct GradWriter<'a> {
    values: &'a [Tensor],
    parents: &'a [usize],
    grads: &'a mut [Tensor],
    has_grad: &'a mut [bool],
}

impl<'a> GradWriter<'a> {
    /// Accumulation view of parent `i`'s gradient buffer (zero-initialised on
    /// first access); implementations must `+=` into it.
    pub fn parent_grad(&mut self, i: usize) -> &mut [f32] {
        let p = self.parents[i];
        ensure_grad(self.values, self.grads, self.has_grad, p);
        self.grads[p].as_mut_slice()
    }

    /// Accumulation views of two *distinct* parents' gradient buffers at
    /// once, consuming the writer so the views live for its full lifetime —
    /// for backward kernels that produce both gradients in a single pass.
    ///
    /// # Panics
    ///
    /// Panics when the two indices name the same tape variable.
    pub fn into_parent_grad_pair(self, i: usize, j: usize) -> (&'a mut [f32], &'a mut [f32]) {
        let (p, q) = (self.parents[i], self.parents[j]);
        assert_ne!(p, q, "parent_grad_pair requires two distinct parents");
        ensure_grad(self.values, self.grads, self.has_grad, p);
        ensure_grad(self.values, self.grads, self.has_grad, q);
        let (lo, hi) = self.grads.split_at_mut(p.max(q));
        let (first, second) = (&mut lo[p.min(q)], &mut hi[0]);
        if p < q {
            (first.as_mut_slice(), second.as_mut_slice())
        } else {
            (second.as_mut_slice(), first.as_mut_slice())
        }
    }
}

/// Sizes and zero-fills the gradient buffer of node `p` on first touch.
fn ensure_grad(values: &[Tensor], grads: &mut [Tensor], has_grad: &mut [bool], p: usize) {
    if !has_grad[p] {
        grads[p].resize_to(values[p].shape());
        grads[p].as_mut_slice().fill(0.0);
        has_grad[p] = true;
    }
}

/// Element-wise `dst += src`.
fn acc_slice(dst: &mut [f32], src: &[f32]) {
    debug_assert_eq!(dst.len(), src.len());
    crate::simd::add_acc(dst, src);
}

/// The operation that produced a node, with the data its backward needs.
enum OpKind {
    Leaf,
    Add,
    Sub,
    Mul,
    Scale(f32),
    Matmul,
    Attention { heads: usize },
    Gelu,
    LayerNorm { eps: f32 },
    AddRowBroadcast,
    MeanPoolRows,
    Sum,
    CrossEntropy { lstart: usize, lcount: usize },
    Embedding { istart: usize, icount: usize },
    Custom(BackwardFn),
}

struct Meta {
    op: &'static str,
    pstart: usize,
    pcount: usize,
    kind: OpKind,
}

#[derive(Default)]
struct TapeInner {
    /// Number of live nodes; storage vectors below are high-water sized.
    len: usize,
    metas: Vec<Meta>,
    values: Vec<Tensor>,
    grads: Vec<Tensor>,
    has_grad: Vec<bool>,
    /// Flat arena of parent indices (`Meta::pstart`/`pcount` slices into it).
    parent_arena: Vec<usize>,
    /// Flat arena of embedding indices and cross-entropy labels.
    index_arena: Vec<usize>,
    /// Reusable per-op staging buffers for the slice-based backward kernels.
    scratch: [Vec<f32>; 4],
    /// Staging buffer for the transpose-free matmul weight gradient.
    tn_scratch: Vec<f32>,
    /// Reused transpose / product staging tensors for the matmul input
    /// gradient (`dA += g · Bᵀ` runs on the full blocked matmul kernel with
    /// `Bᵀ` staged here instead of freshly allocated).
    mm_t: Tensor,
    mm_out: Tensor,
    /// Scratch of the attention kernels: the forward's tiles while a node
    /// is recorded, the backward's per-head slots while it runs.
    attn: Tensor,
}

impl TapeInner {
    fn node(&mut self, op: &'static str, kind: OpKind, parents: &[VarId]) -> usize {
        let idx = self.len;
        let pstart = self.parent_arena.len();
        for p in parents {
            assert!(p.0 < idx, "parent variable recorded after its child (stale VarId?)");
            self.parent_arena.push(p.0);
        }
        let meta = Meta { op, pstart, pcount: parents.len(), kind };
        if idx < self.metas.len() {
            self.metas[idx] = meta;
        } else {
            self.metas.push(meta);
        }
        if idx >= self.values.len() {
            self.values.push(Tensor::default());
        }
        self.len = idx + 1;
        idx
    }
}

/// A reverse-mode automatic differentiation tape with arena-backed storage.
///
/// Operations are recorded in forward order; [`Tape::backward`] walks the
/// recording in reverse and accumulates gradients for every node, which can
/// then be fetched with [`Tape::grad`]. [`Tape::reset`] rewinds the tape for
/// the next training step while retaining every buffer's capacity, so
/// steady-state steps re-record and differentiate the graph without heap
/// allocation.
///
/// Downstream crates can register custom differentiable operators (e.g. the
/// butterfly linear transform) via [`Tape::push_custom`].
///
/// # Example
///
/// ```rust
/// use fab_tensor::{Tape, Tensor};
/// let tape = Tape::new();
/// let x = tape.leaf(Tensor::from_vec(vec![2.0], &[1, 1]).unwrap());
/// let y = tape.mul(x, x);
/// let loss = tape.sum(y);
/// tape.backward(loss);
/// assert!((tape.grad(x).as_slice()[0] - 4.0).abs() < 1e-6);
/// ```
#[derive(Default)]
pub struct Tape {
    inner: RefCell<TapeInner>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes recorded since the last [`Tape::reset`].
    pub fn len(&self) -> usize {
        self.inner.borrow().len
    }

    /// Returns `true` when no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Rewinds the tape so the next step can re-record from scratch, while
    /// retaining the capacity of every node, value, gradient and arena
    /// buffer. Boxed custom backward closures of the previous episode are
    /// dropped eagerly.
    pub fn reset(&self) {
        let mut inner = self.inner.borrow_mut();
        let len = inner.len;
        for meta in &mut inner.metas[..len] {
            if matches!(meta.kind, OpKind::Custom(_)) {
                meta.kind = OpKind::Leaf;
                meta.op = "reset";
            }
        }
        inner.len = 0;
        inner.parent_arena.clear();
        inner.index_arena.clear();
        inner.has_grad.clear();
    }

    /// High-water node count: how many node slots the tape has ever held.
    /// Stable across steady-state [`Tape::reset`] + re-record cycles.
    pub fn node_capacity(&self) -> usize {
        self.inner.borrow().metas.len()
    }

    /// Total `f32` capacity of the tape's value and gradient buffers plus the
    /// parent/index arenas. Stable across steady-state steps — the
    /// allocation-reuse tests assert exactly that.
    pub fn buffer_capacity(&self) -> usize {
        let inner = self.inner.borrow();
        inner.values.iter().map(Tensor::capacity).sum::<usize>()
            + inner.grads.iter().map(Tensor::capacity).sum::<usize>()
            + inner.parent_arena.capacity()
            + inner.index_arena.capacity()
    }

    /// Records a leaf (input or parameter) value and returns its handle.
    pub fn leaf(&self, value: Tensor) -> VarId {
        let mut inner = self.inner.borrow_mut();
        let idx = inner.node("leaf", OpKind::Leaf, &[]);
        inner.values[idx] = value;
        VarId(idx)
    }

    /// Records a leaf by copying `value` into the tape's reused buffer —
    /// the allocation-free alternative to [`Tape::leaf`] for per-step
    /// parameter binding.
    pub fn leaf_copy(&self, value: &Tensor) -> VarId {
        let mut inner = self.inner.borrow_mut();
        let idx = inner.node("leaf", OpKind::Leaf, &[]);
        inner.values[idx].copy_from(value);
        VarId(idx)
    }

    /// Records a custom operation. `compute` receives the parent values and
    /// the tape's reused output buffer (call [`Tensor::resize_to`] then fill
    /// it), so a steady-state step allocates no value; `backward`
    /// accumulates the parents' gradients through its [`BackwardCtx`],
    /// reading their values there. `op` names the node in diagnostics (e.g.
    /// the [`Tape::grad`] panic).
    pub fn push_custom<F>(
        &self,
        op: &'static str,
        parents: &[VarId],
        compute: F,
        backward: BackwardFn,
    ) -> VarId
    where
        F: FnOnce(ParentValues<'_>, &mut Tensor),
    {
        self.push_op(op, OpKind::Custom(backward), parents, compute)
    }

    fn push_op<F>(&self, op: &'static str, kind: OpKind, parents: &[VarId], compute: F) -> VarId
    where
        F: FnOnce(ParentValues<'_>, &mut Tensor),
    {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let idx = inner.node(op, kind, parents);
        let meta = &inner.metas[idx];
        let pids = &inner.parent_arena[meta.pstart..meta.pstart + meta.pcount];
        let (below, rest) = inner.values.split_at_mut(idx);
        compute(ParentValues { values: below, ids: pids }, &mut rest[0]);
        VarId(idx)
    }

    /// The name of the operation that produced `id` (`"leaf"` for leaves).
    pub fn op_name(&self, id: VarId) -> &'static str {
        self.inner.borrow().metas[id.0].op
    }

    /// Returns a clone of the value held by `id`.
    pub fn value(&self, id: VarId) -> Tensor {
        self.with_value(id, Tensor::clone)
    }

    /// Applies `f` to the value held by `id` without cloning it.
    pub fn with_value<R>(&self, id: VarId, f: impl FnOnce(&Tensor) -> R) -> R {
        let inner = self.inner.borrow();
        assert!(id.0 < inner.len, "variable is not live on this tape");
        f(&inner.values[id.0])
    }

    /// The single element of a `[1, 1]` (or any one-element) value.
    ///
    /// # Panics
    ///
    /// Panics when the value holds more than one element.
    pub fn value_scalar(&self, id: VarId) -> f32 {
        self.with_value(id, |v| {
            assert_eq!(v.len(), 1, "value_scalar requires a one-element value");
            v.as_slice()[0]
        })
    }

    /// Returns the shape of the value held by `id`.
    pub fn shape(&self, id: VarId) -> Vec<usize> {
        self.with_value(id, |v| v.shape().to_vec())
    }

    /// Returns the gradient accumulated for `id` by the last [`Tape::backward`] call.
    ///
    /// # Panics
    ///
    /// Panics when no gradient is available for `id`, naming the operation
    /// that produced the node. This happens when
    ///
    /// - [`Tape::backward`] has not been called yet, or
    /// - the node does not influence the differentiated loss (it was
    ///   recorded after the loss, or no computation path connects it to the
    ///   loss — e.g. an unused parameter leaf).
    ///
    /// Use [`Tape::try_grad`] for a non-panicking variant.
    pub fn grad(&self, id: VarId) -> Tensor {
        self.with_grad(id, |g| {
            g.cloned().unwrap_or_else(|| {
                panic!(
                    "no gradient recorded for node {} (op `{}`): either Tape::backward was not \
                     called, or the node does not influence the differentiated loss",
                    id.0,
                    self.op_name(id)
                )
            })
        })
    }

    /// Returns the gradient for `id` if one was accumulated.
    pub fn try_grad(&self, id: VarId) -> Option<Tensor> {
        self.with_grad(id, |g| g.cloned())
    }

    /// Applies `f` to the gradient accumulated for `id` (if any) without
    /// cloning it — the allocation-free accessor used by the fused
    /// optimisers.
    pub fn with_grad<R>(&self, id: VarId, f: impl FnOnce(Option<&Tensor>) -> R) -> R {
        let inner = self.inner.borrow();
        let g = if inner.has_grad.get(id.0).copied().unwrap_or(false) {
            Some(&inner.grads[id.0])
        } else {
            None
        };
        f(g)
    }

    /// Runs reverse-mode differentiation seeded at `loss` (gradient `1` for
    /// every element of the loss value) on the arena backward path: gradients
    /// are accumulated into reusable buffers through slice kernels, with no
    /// per-node allocation once the buffers have warmed up.
    pub fn backward(&self, loss: VarId) {
        self.run_backward(loss, false);
    }

    /// Runs reverse-mode differentiation on the seed-fidelity reference
    /// path: every backward op materialises fresh tensors (including the
    /// transposes the arena path elides) and custom operators are told to
    /// use their reference kernels. Gradients land in the same buffers as
    /// [`Tape::backward`], so [`Tape::grad`] works identically — this is the
    /// oracle the fused path is validated against and the baseline the
    /// training benches compare with.
    pub fn backward_reference(&self, loss: VarId) {
        self.run_backward(loss, true);
    }

    fn run_backward(&self, loss: VarId, reference: bool) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let len = inner.len;
        assert!(loss.0 < len, "loss variable is not live on this tape");
        while inner.grads.len() < len {
            inner.grads.push(Tensor::default());
        }
        inner.has_grad.clear();
        inner.has_grad.resize(len, false);
        inner.grads[loss.0].resize_to(inner.values[loss.0].shape());
        inner.grads[loss.0].as_mut_slice().fill(1.0);
        inner.has_grad[loss.0] = true;

        let TapeInner {
            metas,
            values,
            grads,
            has_grad,
            parent_arena,
            index_arena,
            scratch,
            tn_scratch,
            mm_t,
            mm_out,
            attn,
            ..
        } = inner;

        for idx in (0..=loss.0).rev() {
            if !has_grad[idx] {
                continue;
            }
            let meta = &metas[idx];
            if matches!(meta.kind, OpKind::Leaf) {
                continue;
            }
            let parents = &parent_arena[meta.pstart..meta.pstart + meta.pcount];
            let (gbelow, grest) = grads.split_at_mut(idx);
            let g = &grest[0];
            let (vbelow, vrest) = values.split_at(idx);
            let value = &vrest[0];
            let has = &mut has_grad[..idx];
            if reference {
                if let OpKind::Custom(f) = &meta.kind {
                    let mut ctx = BackwardCtx {
                        upstream: g,
                        value,
                        values: vbelow,
                        parents,
                        grads: gbelow,
                        has_grad: has,
                        reference: true,
                    };
                    f(&mut ctx);
                } else {
                    reference_builtin_backward(
                        &meta.kind,
                        g,
                        value,
                        vbelow,
                        parents,
                        index_arena,
                        gbelow,
                        has,
                    );
                }
                continue;
            }
            match &meta.kind {
                OpKind::Leaf => {}
                OpKind::Add => {
                    acc_slice(grad_buf(vbelow, gbelow, has, parents[0]), g.as_slice());
                    acc_slice(grad_buf(vbelow, gbelow, has, parents[1]), g.as_slice());
                }
                OpKind::Sub => {
                    acc_slice(grad_buf(vbelow, gbelow, has, parents[0]), g.as_slice());
                    let dst = grad_buf(vbelow, gbelow, has, parents[1]);
                    for (d, &gv) in dst.iter_mut().zip(g.as_slice()) {
                        *d += -gv;
                    }
                }
                OpKind::Mul => {
                    {
                        let bv = vbelow[parents[1]].as_slice();
                        let dst = grad_buf(vbelow, gbelow, has, parents[0]);
                        crate::simd::mul_acc(dst, g.as_slice(), bv);
                    }
                    let av = vbelow[parents[0]].as_slice();
                    let dst = grad_buf(vbelow, gbelow, has, parents[1]);
                    crate::simd::mul_acc(dst, g.as_slice(), av);
                }
                OpKind::Scale(c) => {
                    let c = *c;
                    let dst = grad_buf(vbelow, gbelow, has, parents[0]);
                    crate::simd::axpy_acc(dst, c, g.as_slice());
                }
                OpKind::Matmul => {
                    // dA += g · Bᵀ on the blocked matmul kernel, with Bᵀ and
                    // the product staged in reused scratch tensors — the
                    // reference arithmetic without its allocations.
                    vbelow[parents[1]].transpose_into(mm_t);
                    g.matmul_into(mm_t, mm_out);
                    acc_slice(grad_buf(vbelow, gbelow, has, parents[0]), mm_out.as_slice());
                    vbelow[parents[0]].matmul_tn_acc(
                        g,
                        tn_scratch,
                        grad_buf(vbelow, gbelow, has, parents[1]),
                    );
                }
                OpKind::Attention { heads } => {
                    // dQ, dK and dV are staged, then added: the three
                    // parents may be one variable.
                    let [q, k, v] = [0, 1, 2].map(|i| &vbelow[parents[i]]);
                    let n = value.len();
                    let staged = &mut scratch[0];
                    staged.resize(3 * n, 0.0);
                    crate::attention::backward(q, k, v, value, g, *heads, attn, staged);
                    for (i, &p) in parents.iter().enumerate() {
                        acc_slice(grad_buf(vbelow, gbelow, has, p), &staged[i * n..(i + 1) * n]);
                    }
                }
                OpKind::Gelu => {
                    let xv = vbelow[parents[0]].as_slice();
                    let dst = grad_buf(vbelow, gbelow, has, parents[0]);
                    crate::simd::gelu_grad_acc(dst, g.as_slice(), xv);
                }
                OpKind::LayerNorm { eps } => {
                    layer_norm_backward_fused(g, vbelow, parents, *eps, gbelow, has, scratch);
                }
                OpKind::AddRowBroadcast => {
                    acc_slice(grad_buf(vbelow, gbelow, has, parents[0]), g.as_slice());
                    let n = g.cols();
                    let db = &mut scratch[0];
                    db.clear();
                    db.resize(n, 0.0);
                    for gr in g.as_slice().chunks(n) {
                        crate::simd::add_acc(db, gr);
                    }
                    acc_slice(grad_buf(vbelow, gbelow, has, parents[1]), db);
                }
                OpKind::MeanPoolRows => {
                    let m = vbelow[parents[0]].rows();
                    let n = vbelow[parents[0]].cols();
                    let scale = 1.0 / m as f32;
                    let dst = grad_buf(vbelow, gbelow, has, parents[0]);
                    for dxr in dst.chunks_mut(n) {
                        crate::simd::axpy_acc(dxr, scale, &g.as_slice()[..n]);
                    }
                }
                OpKind::Sum => {
                    let s = g.as_slice()[0];
                    let dst = grad_buf(vbelow, gbelow, has, parents[0]);
                    for d in dst.iter_mut() {
                        *d += s;
                    }
                }
                OpKind::CrossEntropy { lstart, lcount } => {
                    let labels = &index_arena[*lstart..*lstart + *lcount];
                    cross_entropy_backward_fused(g, vbelow, parents, labels, gbelow, has, scratch);
                }
                OpKind::Embedding { istart, icount } => {
                    let indices = &index_arena[*istart..*istart + *icount];
                    let dim = vbelow[parents[0]].cols();
                    let dst = grad_buf(vbelow, gbelow, has, parents[0]);
                    for (gr, &i) in g.as_slice().chunks(dim).zip(indices.iter()) {
                        acc_slice(&mut dst[i * dim..(i + 1) * dim], gr);
                    }
                }
                OpKind::Custom(f) => {
                    let mut ctx = BackwardCtx {
                        upstream: g,
                        value,
                        values: vbelow,
                        parents,
                        grads: gbelow,
                        has_grad: has,
                        reference: false,
                    };
                    f(&mut ctx);
                }
            }
        }
    }

    // ----- differentiable operations -------------------------------------

    /// Element-wise addition.
    pub fn add(&self, a: VarId, b: VarId) -> VarId {
        self.push_op("add", OpKind::Add, &[a, b], |pv, out| pv.get(0).add_into(pv.get(1), out))
    }

    /// Element-wise subtraction.
    pub fn sub(&self, a: VarId, b: VarId) -> VarId {
        self.push_op("sub", OpKind::Sub, &[a, b], |pv, out| pv.get(0).sub_into(pv.get(1), out))
    }

    /// Element-wise multiplication.
    pub fn mul(&self, a: VarId, b: VarId) -> VarId {
        self.push_op("mul", OpKind::Mul, &[a, b], |pv, out| pv.get(0).mul_into(pv.get(1), out))
    }

    /// Multiplication by a compile-time constant scalar.
    pub fn scale(&self, a: VarId, c: f32) -> VarId {
        self.push_op("scale", OpKind::Scale(c), &[a], |pv, out| pv.get(0).scale_into(c, out))
    }

    /// Matrix multiplication of two 2-D variables.
    pub fn matmul(&self, a: VarId, b: VarId) -> VarId {
        self.push_op("matmul", OpKind::Matmul, &[a, b], |pv, out| {
            pv.get(0).matmul_into(pv.get(1), out)
        })
    }

    /// Multi-head self-attention of `[len, dim]` query, key and value
    /// variables: head `h` (columns `h · d .. (h + 1) · d`, `d = dim /
    /// num_heads`) of the `[len, dim]` result is `softmax(c · q_h·k_hᵀ) ·
    /// v_h` with `c = 1/√d`. The value is [`crate::attention::forward`]'s,
    /// the frozen forward's bits; the node keeps nothing but that value, and
    /// its backward ([`crate::attention::backward`]) recomputes the
    /// probabilities tile by tile, so the tape holds no `[len, len]` matrix.
    ///
    /// # Panics
    ///
    /// Panics when the shapes differ or `num_heads` does not divide `dim`.
    pub fn attention(&self, q: VarId, k: VarId, v: VarId, num_heads: usize) -> VarId {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let idx = inner.node("attention", OpKind::Attention { heads: num_heads }, &[q, k, v]);
        let (below, rest) = inner.values.split_at_mut(idx);
        let (qv, kv, vv) = (&below[q.0], &below[k.0], &below[v.0]);
        let out = &mut rest[0];
        out.resize_to(&[qv.rows(), qv.cols()]);
        let backend = crate::simd::backend();
        let out = out.as_mut_slice();
        crate::attention::forward(backend, qv, kv, vv, num_heads, false, out, &mut inner.attn);
        VarId(idx)
    }

    /// Gaussian error linear unit (tanh approximation).
    pub fn gelu(&self, a: VarId) -> VarId {
        self.push_op("gelu", OpKind::Gelu, &[a], |pv, out| pv.get(0).gelu_into(out))
    }

    /// Row-wise layer normalization with learned `gamma` and `beta`.
    pub fn layer_norm(&self, x: VarId, gamma: VarId, beta: VarId, eps: f32) -> VarId {
        self.push_op("layer_norm", OpKind::LayerNorm { eps }, &[x, gamma, beta], |pv, out| {
            pv.get(0).layer_norm_rows_into(pv.get(1), pv.get(2), eps, out)
        })
    }

    /// Adds a `[cols]` or `[1, cols]` bias row to every row of a 2-D variable.
    pub fn add_row_broadcast(&self, x: VarId, bias: VarId) -> VarId {
        self.push_op("add_row_broadcast", OpKind::AddRowBroadcast, &[x, bias], |pv, out| {
            pv.get(0).add_row_broadcast_into(pv.get(1), out)
        })
    }

    /// Mean over rows of a 2-D variable, producing a `[1, cols]` value.
    pub fn mean_pool_rows(&self, x: VarId) -> VarId {
        self.push_op("mean_pool_rows", OpKind::MeanPoolRows, &[x], |pv, out| {
            pv.get(0).mean_rows_into(out)
        })
    }

    /// Sum of all elements, producing a `[1, 1]` value.
    pub fn sum(&self, x: VarId) -> VarId {
        self.push_op("sum", OpKind::Sum, &[x], |pv, out| {
            out.resize_to(&[1, 1]);
            out.as_mut_slice()[0] = pv.get(0).sum();
        })
    }

    /// Mean cross-entropy between row logits and integer `labels`.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the number of logit rows or a
    /// label is out of range.
    pub fn cross_entropy(&self, logits: VarId, labels: &[usize]) -> VarId {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let lstart = inner.index_arena.len();
        inner.index_arena.extend_from_slice(labels);
        let kind = OpKind::CrossEntropy { lstart, lcount: labels.len() };
        let idx = inner.node("cross_entropy", kind, &[logits]);
        let (below, rest) = inner.values.split_at_mut(idx);
        let lv = &below[logits.0];
        let (m, n) = (lv.rows(), lv.cols());
        assert_eq!(labels.len(), m, "labels/rows mismatch");
        for &l in labels {
            assert!(l < n, "label {l} out of range for {n} classes");
        }
        // -mean(log_softmax(x)[label]) computed row by row with the same
        // max / exp-sum / ln arithmetic as `Tensor::log_softmax_rows`, so the
        // loss matches the seed's materialising implementation bit for bit.
        let mut total = 0.0f32;
        for (row, &l) in lv.as_slice().chunks(n).zip(labels.iter()) {
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let log_sum: f32 = row.iter().map(|&x| (x - max).exp()).sum::<f32>().ln();
            total += -(row[l] - max - log_sum);
        }
        let out = &mut rest[0];
        out.resize_to(&[1, 1]);
        out.as_mut_slice()[0] = total / m as f32;
        VarId(idx)
    }

    /// Gathers rows of an embedding `table` (shape `[vocab, dim]`) for the
    /// given token `indices`, producing a `[indices.len(), dim]` value.
    ///
    /// # Panics
    ///
    /// Panics when an index is outside the table.
    pub fn embedding(&self, table: VarId, indices: &[usize]) -> VarId {
        self.embedding_inner(table, indices.len(), |arena| arena.extend_from_slice(indices))
    }

    /// Like [`Tape::embedding`] with `indices = 0..len` (positional
    /// embeddings) without requiring the caller to materialise the index
    /// vector.
    pub fn embedding_iota(&self, table: VarId, len: usize) -> VarId {
        self.embedding_inner(table, len, |arena| arena.extend(0..len))
    }

    fn embedding_inner(
        &self,
        table: VarId,
        count: usize,
        fill_indices: impl FnOnce(&mut Vec<usize>),
    ) -> VarId {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let istart = inner.index_arena.len();
        fill_indices(&mut inner.index_arena);
        debug_assert_eq!(inner.index_arena.len(), istart + count);
        let kind = OpKind::Embedding { istart, icount: count };
        let idx = inner.node("embedding", kind, &[table]);
        let indices = &inner.index_arena[istart..istart + count];
        let (below, rest) = inner.values.split_at_mut(idx);
        let tv = &below[table.0];
        let (vocab, dim) = (tv.rows(), tv.cols());
        for &i in indices {
            assert!(i < vocab, "token index {i} out of range for vocab {vocab}");
        }
        let out = &mut rest[0];
        out.resize_to(&[count, dim]);
        for (orow, &i) in out.as_mut_slice().chunks_mut(dim).zip(indices.iter()) {
            orow.copy_from_slice(&tv.as_slice()[i * dim..(i + 1) * dim]);
        }
        VarId(idx)
    }
}

/// Shorthand for the ensure + borrow pattern of the fused backward arms.
fn grad_buf<'g>(
    values: &[Tensor],
    grads: &'g mut [Tensor],
    has_grad: &mut [bool],
    p: usize,
) -> &'g mut [f32] {
    ensure_grad(values, grads, has_grad, p);
    grads[p].as_mut_slice()
}

/// Rows per tile of [`layer_norm_backward_fused`]'s statistics pass.
const LN_TILE: usize = 8;

/// Fused layer-norm backward: `dx` goes directly into the parent gradient and
/// `dgamma`/`dbeta` are staged in reusable scratch (so their row-accumulation
/// order matches the reference exactly).
///
/// A row needs four sums over its columns (mean, variance, and the means of
/// `dxhat` and `dxhat·xhat`), each a chain of dependent adds. They are taken
/// for [`LN_TILE`] rows at once in lane layout — row `r` of the tile in lane
/// `r`, every lane adding its own row's terms in column order from
/// `f32::sum`'s identity, so each statistic has the bits of the reference's
/// scalar `sum` — and the element-wise pass then runs row-major, rows in
/// order.
#[allow(clippy::too_many_arguments)]
fn layer_norm_backward_fused(
    g: &Tensor,
    values: &[Tensor],
    parents: &[usize],
    eps: f32,
    grads: &mut [Tensor],
    has_grad: &mut [bool],
    scratch: &mut [Vec<f32>; 4],
) {
    const T: usize = LN_TILE;
    let xv = &values[parents[0]];
    let gammav = &values[parents[1]];
    let n = xv.cols();
    let [dgamma, dbeta, x_lanes, g_lanes] = scratch;
    dgamma.clear();
    dgamma.resize(n, 0.0);
    dbeta.clear();
    dbeta.resize(n, 0.0);
    x_lanes.resize(n * T, 0.0);
    g_lanes.resize(n * T, 0.0);
    let gamma = gammav.as_slice();
    let inv_n = |sum: [f32; T]| sum.map(|s| s / n as f32);
    {
        let dst = grad_buf(values, grads, has_grad, parents[0]);
        for ((dx_tile, x_tile), g_tile) in
            dst.chunks_mut(T * n).zip(xv.as_slice().chunks(T * n)).zip(g.as_slice().chunks(T * n))
        {
            let rows = x_tile.len() / n;
            crate::simd::rows_to_lanes(x_tile, n, rows, n, &[], x_lanes, T);
            crate::simd::rows_to_lanes(g_tile, n, rows, n, &[], g_lanes, T);
            let mut sum = [-0.0f32; T];
            for xs in x_lanes.chunks_exact(T) {
                for (s, &v) in sum.iter_mut().zip(xs) {
                    *s += v;
                }
            }
            let mean = inv_n(sum);
            let mut sum = [-0.0f32; T];
            for xs in x_lanes.chunks_exact(T) {
                for ((s, &v), &m) in sum.iter_mut().zip(xs).zip(&mean) {
                    *s += (v - m) * (v - m);
                }
            }
            let inv = inv_n(sum).map(|var| 1.0 / (var + eps).sqrt());
            let (mut sum_dxhat, mut sum_dxhat_xhat) = ([-0.0f32; T], [-0.0f32; T]);
            for ((xs, gs), &gm) in x_lanes.chunks_exact(T).zip(g_lanes.chunks_exact(T)).zip(gamma) {
                for l in 0..T {
                    let (xhat, dxhat) = ((xs[l] - mean[l]) * inv[l], gs[l] * gm);
                    sum_dxhat[l] += dxhat;
                    sum_dxhat_xhat[l] += dxhat * xhat;
                }
            }
            let (mean_dxhat, mean_dxhat_xhat) = (inv_n(sum_dxhat), inv_n(sum_dxhat_xhat));
            for (r, ((dxr, row), gr)) in
                dx_tile.chunks_mut(n).zip(x_tile.chunks(n)).zip(g_tile.chunks(n)).enumerate()
            {
                let (mean, inv) = (mean[r], inv[r]);
                let (mean_dxhat, mean_dxhat_xhat) = (mean_dxhat[r], mean_dxhat_xhat[r]);
                let columns = row.iter().zip(gr).zip(gamma);
                let sums = dgamma.iter_mut().zip(dbeta.iter_mut());
                for ((d, ((&v, &gv), &gm)), (dg, db)) in dxr.iter_mut().zip(columns).zip(sums) {
                    let (xhat, dxhat) = ((v - mean) * inv, gv * gm);
                    *dg += gv * xhat;
                    *db += gv;
                    *d += inv * (dxhat - mean_dxhat - xhat * mean_dxhat_xhat);
                }
            }
        }
    }
    acc_slice(grad_buf(values, grads, has_grad, parents[1]), dgamma);
    acc_slice(grad_buf(values, grads, has_grad, parents[2]), dbeta);
}

/// Fused cross-entropy backward: per-row softmax staged in scratch, then
/// `(p - onehot) * upstream / rows` accumulated into the logits gradient.
fn cross_entropy_backward_fused(
    g: &Tensor,
    values: &[Tensor],
    parents: &[usize],
    labels: &[usize],
    grads: &mut [Tensor],
    has_grad: &mut [bool],
    scratch: &mut [Vec<f32>; 4],
) {
    let lv = &values[parents[0]];
    let (m, n) = (lv.rows(), lv.cols());
    let k = g.as_slice()[0] / m as f32;
    let probs = &mut scratch[0];
    probs.clear();
    probs.resize(n, 0.0);
    let dst = grad_buf(values, grads, has_grad, parents[0]);
    for ((dxr, row), &l) in dst.chunks_mut(n).zip(lv.as_slice().chunks(n)).zip(labels.iter()) {
        // Mirror `Tensor::softmax_rows` arithmetic exactly — on every
        // backend, since the reference backward materialises that very op.
        crate::simd::softmax_row(row, probs);
        for (j, (d, &p)) in dxr.iter_mut().zip(probs.iter()).enumerate() {
            let v = if j == l { p - 1.0 } else { p };
            *d += v * k;
        }
    }
}

/// The seed autodiff's backward ops, kept verbatim in spirit: every gradient
/// is a freshly allocated tensor (transposes materialised, parent grads
/// `add`-chained), exactly reproducing the pre-arena tape's arithmetic and
/// allocation profile. Used by [`Tape::backward_reference`].
#[allow(clippy::too_many_arguments)]
fn reference_builtin_backward(
    kind: &OpKind,
    g: &Tensor,
    value: &Tensor,
    values: &[Tensor],
    parents: &[usize],
    index_arena: &[usize],
    grads: &mut [Tensor],
    has_grad: &mut [bool],
) {
    let pv = |i: usize| &values[parents[i]];
    let mut out: Vec<Tensor> = Vec::with_capacity(parents.len());
    match kind {
        OpKind::Leaf | OpKind::Custom(_) => unreachable!("handled by the caller"),
        OpKind::Add => {
            out.push(g.clone());
            out.push(g.clone());
        }
        OpKind::Sub => {
            out.push(g.clone());
            out.push(g.scale(-1.0));
        }
        OpKind::Mul => {
            out.push(g.mul(pv(1)));
            out.push(g.mul(pv(0)));
        }
        OpKind::Scale(c) => out.push(g.scale(*c)),
        OpKind::Matmul => {
            out.push(g.matmul(&pv(1).transpose()));
            out.push(pv(0).transpose().matmul(g));
        }
        OpKind::Attention { heads } => {
            // `attention::backward` untiled, head by head: every `[len, len]`
            // matrix materialised, every product one whole-tensor matmul
            // (which sums in the tiles' order).
            let (o, len, dim) = (value, value.rows(), value.cols());
            let head_dim = dim / heads;
            let c = 1.0 / (head_dim as f32).sqrt();
            let mut grads = [(); 3].map(|_| Tensor::zeros(&[len, dim]));
            for lo in (0..dim).step_by(head_dim.max(1)) {
                let [q, k, v] = [0, 1, 2].map(|i| pv(i).slice_cols(lo, lo + head_dim));
                let gh = g.slice_cols(lo, lo + head_dim);
                let p = q.matmul(&k.transpose()).scale(c).softmax_rows();
                let dp = gh.matmul(&v.scale(c).transpose());
                let mut ds = p.clone();
                let w = len.max(1);
                for (r, (dsr, dpr)) in
                    ds.as_mut_slice().chunks_mut(w).zip(dp.as_slice().chunks(w)).enumerate()
                {
                    let terms = gh.as_slice()[r * head_dim..][..head_dim].iter();
                    let o = &o.as_slice()[r * dim + lo..][..head_dim];
                    let delta = -c * terms.zip(o).fold(0.0, |acc, (&g, &o)| acc + g * o);
                    for (d, &dp) in dsr.iter_mut().zip(dpr) {
                        *d *= dp + delta;
                    }
                }
                let head = [
                    ds.matmul(&k),
                    q.transpose().matmul(&ds).transpose(),
                    gh.transpose().matmul(&p).transpose(),
                ];
                for (grad, head) in grads.iter_mut().zip(&head) {
                    let rows =
                        grad.as_mut_slice().chunks_mut(dim).zip(head.as_slice().chunks(head_dim));
                    for (row, src) in rows {
                        row[lo..lo + head_dim].copy_from_slice(src);
                    }
                }
            }
            out.extend(grads);
        }
        OpKind::Gelu => out.push(
            Tensor::from_vec(
                g.as_slice()
                    .iter()
                    .zip(pv(0).as_slice().iter())
                    .map(|(&gv, &xv)| gv * gelu_grad_scalar(xv))
                    .collect(),
                g.shape(),
            )
            .expect("gelu gradient shape"),
        ),
        OpKind::LayerNorm { eps } => {
            let (xv, gammav) = (pv(0), pv(1));
            let (m, n) = (xv.rows(), xv.cols());
            let mut dx = Tensor::zeros(&[m, n]);
            let mut dgamma = Tensor::zeros(&[n]);
            let mut dbeta = Tensor::zeros(&[n]);
            let gamma = gammav.as_slice();
            let mut xhat = vec![0.0f32; n];
            let mut dxhat = vec![0.0f32; n];
            let dx_rows = dx.as_mut_slice().chunks_mut(n);
            for ((dxr, row), gr) in dx_rows.zip(xv.as_slice().chunks(n)).zip(g.as_slice().chunks(n))
            {
                let mean = row.iter().sum::<f32>() / n as f32;
                let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n as f32;
                let inv = 1.0 / (var + eps).sqrt();
                for (h, &v) in xhat.iter_mut().zip(row.iter()) {
                    *h = (v - mean) * inv;
                }
                for (((dg, db), &gv), &h) in dgamma
                    .as_mut_slice()
                    .iter_mut()
                    .zip(dbeta.as_mut_slice().iter_mut())
                    .zip(gr.iter())
                    .zip(xhat.iter())
                {
                    *dg += gv * h;
                    *db += gv;
                }
                for ((dh, &gv), &gm) in dxhat.iter_mut().zip(gr.iter()).zip(gamma.iter()) {
                    *dh = gv * gm;
                }
                let mean_dxhat = dxhat.iter().sum::<f32>() / n as f32;
                let mean_dxhat_xhat =
                    dxhat.iter().zip(xhat.iter()).map(|(a, b)| a * b).sum::<f32>() / n as f32;
                for ((d, &dh), &h) in dxr.iter_mut().zip(dxhat.iter()).zip(xhat.iter()) {
                    *d = inv * (dh - mean_dxhat - h * mean_dxhat_xhat);
                }
            }
            out.push(dx);
            out.push(dgamma);
            out.push(dbeta);
        }
        OpKind::AddRowBroadcast => {
            let bias_shape = pv(1).shape().to_vec();
            let n = g.cols();
            let mut db = vec![0.0f32; n];
            for gr in g.as_slice().chunks(n) {
                for (d, &gv) in db.iter_mut().zip(gr.iter()) {
                    *d += gv;
                }
            }
            out.push(g.clone());
            out.push(Tensor::from_vec(db, &bias_shape).expect("bias gradient shape"));
        }
        OpKind::MeanPoolRows => {
            let (m, n) = (pv(0).rows(), pv(0).cols());
            let mut dx = Tensor::zeros(&[m, n]);
            let scale = 1.0 / m as f32;
            for dxr in dx.as_mut_slice().chunks_mut(n) {
                for (d, &gv) in dxr.iter_mut().zip(g.as_slice().iter()) {
                    *d = gv * scale;
                }
            }
            out.push(dx);
        }
        OpKind::Sum => {
            let s = g.as_slice()[0];
            out.push(Tensor::full(pv(0).shape(), s));
        }
        OpKind::CrossEntropy { lstart, lcount } => {
            let labels = &index_arena[*lstart..*lstart + *lcount];
            let scale = g.as_slice()[0];
            let probs = pv(0).softmax_rows();
            let m = probs.rows();
            let mut dx = probs;
            for (i, &l) in labels.iter().enumerate() {
                let v = dx.at(i, l) - 1.0;
                dx.set(i, l, v);
            }
            out.push(dx.scale(scale / m as f32));
        }
        OpKind::Embedding { istart, icount } => {
            let indices = &index_arena[*istart..*istart + *icount];
            let (vocab, dim) = (pv(0).rows(), pv(0).cols());
            let mut dt = Tensor::zeros(&[vocab, dim]);
            for (gr, &i) in g.as_slice().chunks(dim).zip(indices.iter()) {
                let trow = &mut dt.as_mut_slice()[i * dim..(i + 1) * dim];
                for (d, &gv) in trow.iter_mut().zip(gr.iter()) {
                    *d += gv;
                }
            }
            out.push(dt);
        }
    }
    assert_eq!(out.len(), parents.len(), "backward returned a wrong gradient count");
    for (&p, pg) in parents.iter().zip(out) {
        if has_grad[p] {
            grads[p] = grads[p].add(&pg);
        } else {
            grads[p] = pg;
            has_grad[p] = true;
        }
    }
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tape").field("nodes", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_gradient;

    fn t(data: Vec<f32>, shape: &[usize]) -> Tensor {
        Tensor::from_vec(data, shape).unwrap()
    }

    #[test]
    fn square_gradient() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![3.0], &[1, 1]));
        let y = tape.mul(x, x);
        let loss = tape.sum(y);
        tape.backward(loss);
        assert!((tape.grad(x).as_slice()[0] - 6.0).abs() < 1e-5);
    }

    #[test]
    fn matmul_gradients_match_finite_differences() {
        let x = t(vec![0.5, -0.3, 0.8, 0.1, 0.2, -0.7], &[2, 3]);
        let ok = check_gradient(
            |tape, xv| {
                let w = tape.leaf(t(vec![0.3, -0.2, 0.5, 0.7, -0.4, 0.6], &[3, 2]));
                let y = tape.matmul(xv, w);
                tape.sum(y)
            },
            &x,
            1e-2,
        );
        assert!(ok);
    }

    #[test]
    fn attention_gradient_matches_finite_differences() {
        let x = t(vec![0.5, -1.0, 2.0, 0.3, 0.1, -0.4, 0.9, -0.6, 1.2, 0.0, -0.8, 0.4], &[3, 4]);
        for heads in [1, 2] {
            let ok = check_gradient(
                |tape, xv| {
                    let k =
                        tape.leaf(t((0..12).map(|i| (i as f32 * 0.37).sin()).collect(), &[3, 4]));
                    // The query is the value too: both gradients reach `x`.
                    let s = tape.attention(xv, k, xv, heads);
                    let w =
                        tape.leaf(t((0..12).map(|i| (i as f32 * 0.71).cos()).collect(), &[3, 4]));
                    let y = tape.mul(s, w);
                    tape.sum(y)
                },
                &x,
                1e-2,
            );
            assert!(ok, "{heads} heads");
        }
    }

    #[test]
    fn layer_norm_gradient_matches_finite_differences() {
        let x = t(vec![0.5, -1.0, 2.0, 0.3, 0.7, -0.2, 1.1, 0.9], &[2, 4]);
        let ok = check_gradient(
            |tape, xv| {
                let gamma = tape.leaf(t(vec![1.0, 0.5, 2.0, 1.5], &[4]));
                let beta = tape.leaf(t(vec![0.1, -0.1, 0.2, 0.0], &[4]));
                let y = tape.layer_norm(xv, gamma, beta, 1e-5);
                let w = tape.leaf(t(vec![0.3, 0.9, -0.5, 0.2, 1.0, -1.0, 0.4, 0.6], &[2, 4]));
                let z = tape.mul(y, w);
                tape.sum(z)
            },
            &x,
            2e-2,
        );
        assert!(ok);
    }

    #[test]
    fn cross_entropy_gradient_matches_finite_differences() {
        let x = t(vec![0.2, -0.5, 1.0, 0.7, 0.1, -0.3], &[2, 3]);
        let ok = check_gradient(|tape, xv| tape.cross_entropy(xv, &[2, 0]), &x, 1e-2);
        assert!(ok);
    }

    #[test]
    fn gelu_gradient_matches_finite_differences() {
        let x = t(vec![-1.5, -0.3, 0.0, 0.4, 1.2, 2.5], &[2, 3]);
        let ok = check_gradient(
            |tape, xv| {
                let y = tape.gelu(xv);
                tape.sum(y)
            },
            &x,
            1e-2,
        );
        assert!(ok);
    }

    #[test]
    fn embedding_gradient_is_scatter_add() {
        let tape = Tape::new();
        let table = tape.leaf(t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]));
        let emb = tape.embedding(table, &[0, 2, 0]);
        let loss = tape.sum(emb);
        tape.backward(loss);
        let g = tape.grad(table);
        // Token 0 appears twice, token 1 never, token 2 once.
        assert_eq!(g.at(0, 0), 2.0);
        assert_eq!(g.at(1, 0), 0.0);
        assert_eq!(g.at(2, 1), 1.0);
    }

    #[test]
    fn embedding_iota_matches_explicit_indices() {
        let table_t = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let tape = Tape::new();
        let table = tape.leaf(table_t.clone());
        let a = tape.embedding(table, &[0, 1, 2]);
        let b = tape.embedding_iota(table, 3);
        assert_eq!(tape.value(a), tape.value(b));
    }

    #[test]
    fn gradients_accumulate_across_reuse() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![1.0, 2.0], &[1, 2]));
        let y = tape.add(x, x);
        let loss = tape.sum(y);
        tape.backward(loss);
        assert_eq!(tape.grad(x).as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn unused_leaf_has_no_gradient() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![1.0], &[1, 1]));
        let unused = tape.leaf(t(vec![5.0], &[1, 1]));
        let loss = tape.sum(x);
        tape.backward(loss);
        assert!(tape.try_grad(unused).is_none());
    }

    #[test]
    fn missing_gradient_panic_names_the_op() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![1.0, 2.0], &[1, 2]));
        let y = tape.mul(x, x);
        let unused = tape.gelu(x);
        let loss = tape.sum(y);
        tape.backward(loss);
        assert_eq!(tape.op_name(unused), "gelu");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tape.grad(unused)))
            .expect_err("grad of an unused node must panic");
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert!(msg.contains("op `gelu`"), "panic message should name the op: {msg}");
        assert!(msg.contains("does not influence"), "panic message should explain: {msg}");
    }

    #[test]
    fn mean_pool_rows_gradient() {
        let x = t(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let ok = check_gradient(
            |tape, xv| {
                let p = tape.mean_pool_rows(xv);
                let w = tape.leaf(t(vec![1.0, -2.0], &[1, 2]));
                let y = tape.mul(p, w);
                tape.sum(y)
            },
            &x,
            1e-2,
        );
        assert!(ok);
    }

    /// A small graph exercising every built-in op with a non-trivial mix of
    /// fan-out and reuse.
    fn mixed_graph(tape: &Tape) -> (VarId, Vec<VarId>) {
        let x =
            tape.leaf(t((0..12).map(|i| ((i * 7 % 13) as f32) * 0.21 - 0.9).collect(), &[3, 4]));
        let w =
            tape.leaf(t((0..16).map(|i| ((i * 5 % 11) as f32) * 0.13 - 0.6).collect(), &[4, 4]));
        let gamma = tape.leaf(t(vec![1.0, 0.8, 1.2, 0.9], &[4]));
        let beta = tape.leaf(t(vec![0.1, -0.2, 0.0, 0.3], &[4]));
        let bias = tape.leaf(t(vec![0.05, -0.03, 0.02, 0.07], &[4]));
        let h = tape.matmul(x, w);
        let h = tape.add_row_broadcast(h, bias);
        let h = tape.gelu(h);
        let hn = tape.layer_norm(h, gamma, beta, 1e-5);
        let s = tape.attention(hn, h, x, 2);
        let mixed = tape.matmul(s, w);
        let res = tape.add(mixed, x);
        let scaled = tape.scale(res, 0.7);
        let prod = tape.mul(scaled, x);
        let pooled = tape.mean_pool_rows(prod);
        let r = tape.gelu(pooled);
        let su = tape.sum(r);
        let logits = tape.matmul(x, w);
        let ce = tape.cross_entropy(logits, &[1, 0, 3]);
        let loss = tape.add(su, ce);
        (loss, vec![x, w, gamma, beta, bias])
    }

    #[test]
    fn arena_backward_matches_reference_backward() {
        let tape = Tape::new();
        let (loss, leaves) = mixed_graph(&tape);
        tape.backward(loss);
        let fused: Vec<Tensor> = leaves.iter().map(|&l| tape.grad(l)).collect();
        tape.backward_reference(loss);
        for (i, (&l, f)) in leaves.iter().zip(&fused).enumerate() {
            let r = tape.grad(l);
            let max = f
                .as_slice()
                .iter()
                .zip(r.as_slice())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f32, f32::max);
            assert!(max <= 1e-6, "leaf {i}: fused vs reference grad diff {max}");
        }
    }

    /// The lane statistics of the fused layer-norm backward against the
    /// reference's scalar sums, bit for bit, with row counts on both sides
    /// of a tile boundary.
    #[test]
    fn layer_norm_backward_is_bit_identical_to_the_reference() {
        for (rows, cols) in [(1, 1), (7, 5), (8, 64), (9, 64), (19, 3), (64, 33)] {
            let fill = |len: usize, salt: usize| -> Vec<f32> {
                (0..len).map(|i| (((i * 37 + salt * 11) % 101) as f32) * 0.037 - 1.9).collect()
            };
            let tape = Tape::new();
            let leaves = [
                tape.leaf(t(fill(rows * cols, 1), &[rows, cols])),
                tape.leaf(t(fill(cols, 2), &[cols])),
                tape.leaf(t(fill(cols, 3), &[cols])),
            ];
            let y = tape.layer_norm(leaves[0], leaves[1], leaves[2], 1e-5);
            let mask = tape.leaf(t(fill(rows * cols, 4), &[rows, cols]));
            let loss = tape.sum(tape.mul(y, mask));
            tape.backward(loss);
            let fused = leaves.map(|l| tape.grad(l));
            tape.backward_reference(loss);
            assert_eq!(fused, leaves.map(|l| tape.grad(l)), "{rows}x{cols}");
        }
    }

    #[test]
    fn reset_retains_capacity_and_reuses_buffers() {
        let tape = Tape::new();
        let (loss, _) = mixed_graph(&tape);
        tape.backward(loss);
        let nodes = tape.len();
        let node_cap = tape.node_capacity();
        let buf_cap = tape.buffer_capacity();
        for _ in 0..5 {
            tape.reset();
            assert!(tape.is_empty());
            let (loss, leaves) = mixed_graph(&tape);
            tape.backward(loss);
            assert!(tape.try_grad(leaves[0]).is_some());
            assert_eq!(tape.len(), nodes, "re-recording must produce the same node count");
            assert_eq!(tape.node_capacity(), node_cap, "node storage must not grow");
            assert_eq!(tape.buffer_capacity(), buf_cap, "tape buffers must not grow");
        }
    }

    #[test]
    fn reset_then_rerecord_matches_fresh_tape() {
        // Compares GEMM and row-kernel bits: no backend switch in between.
        let _g = crate::simd::tests::guard();
        let reused = Tape::new();
        let (loss, _) = mixed_graph(&reused);
        reused.backward(loss);
        reused.reset();
        let (loss, leaves) = mixed_graph(&reused);
        reused.backward(loss);

        let fresh = Tape::new();
        let (floss, fleaves) = mixed_graph(&fresh);
        fresh.backward(floss);
        assert_eq!(reused.value(loss), fresh.value(floss));
        for (&a, &b) in leaves.iter().zip(&fleaves) {
            assert_eq!(reused.grad(a), fresh.grad(b), "reused tape must be bit-identical");
        }
    }

    #[test]
    fn leaf_copy_matches_leaf() {
        let x = t(vec![1.0, -2.0, 3.0], &[1, 3]);
        let tape = Tape::new();
        let a = tape.leaf(x.clone());
        let b = tape.leaf_copy(&x);
        assert_eq!(tape.value(a), tape.value(b));
    }

    #[test]
    fn value_scalar_reads_scalars() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![4.0], &[1, 1]));
        assert_eq!(tape.value_scalar(x), 4.0);
    }

    #[test]
    fn custom_op_duplicate_parents_accumulate() {
        let tape = Tape::new();
        let x = tape.leaf(t(vec![2.0, 3.0], &[1, 2]));
        // y = x * x as a custom op with x recorded twice as a parent.
        let y = tape.push_custom(
            "square",
            &[x, x],
            |pv, out| pv.get(0).mul_into(pv.get(1), out),
            Box::new(|ctx| {
                for i in 0..2 {
                    let other = ctx.parent(1 - i).clone();
                    let g: Vec<f32> = ctx
                        .upstream()
                        .as_slice()
                        .iter()
                        .zip(other.as_slice())
                        .map(|(&gv, &o)| gv * o)
                        .collect();
                    acc_slice(ctx.parent_grad(i), &g);
                }
            }),
        );
        let loss = tape.sum(y);
        tape.backward(loss);
        assert_eq!(tape.grad(x).as_slice(), &[4.0, 6.0]);
    }
}
