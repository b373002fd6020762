//! Shared trainable parameters and their per-forward tape bindings.

use fab_tensor::{Tape, Tensor, VarId};
use std::cell::RefCell;
use std::rc::Rc;

/// A trainable parameter shared between a layer and the optimiser.
///
/// Layers hold `Param`s; on every forward pass the parameter value is pushed
/// onto the tape as a leaf and the `(VarId, Param)` pair is recorded in a
/// [`Bindings`] list, which the optimiser later walks to apply gradients.
#[derive(Clone, Debug)]
pub struct Param {
    inner: Rc<RefCell<Tensor>>,
    /// Shared, so the clone [`Param::bind`] records allocates nothing.
    name: Rc<str>,
}

impl Param {
    /// Wraps a tensor as a trainable parameter with a diagnostic name.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        Self { inner: Rc::new(RefCell::new(value)), name: Rc::from(name.into()) }
    }

    /// Returns a clone of the current parameter value.
    pub fn value(&self) -> Tensor {
        self.inner.borrow().clone()
    }

    /// Replaces the parameter value.
    pub fn set(&self, value: Tensor) {
        *self.inner.borrow_mut() = value;
    }

    /// Applies `f` to the parameter value in place.
    pub fn update<F: FnOnce(&mut Tensor)>(&self, f: F) {
        f(&mut self.inner.borrow_mut());
    }

    /// Number of scalar elements in the parameter.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// Returns `true` when the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The diagnostic name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Pushes the current value onto `tape` as a leaf, records the binding,
    /// and returns the leaf's variable id.
    ///
    /// The value is copied into the tape's reused leaf buffer
    /// ([`Tape::leaf_copy`]), so re-binding the same parameters every
    /// training step performs no allocation.
    pub fn bind(&self, tape: &Tape, bindings: &mut Bindings) -> VarId {
        let id = tape.leaf_copy(&self.inner.borrow());
        bindings.push(id, self.clone());
        id
    }
}

/// The list of `(VarId, Param)` pairs produced by one forward pass.
#[derive(Default, Debug)]
pub struct Bindings {
    entries: Vec<(VarId, Param)>,
}

impl Bindings {
    /// Creates an empty binding list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `param` was bound to tape variable `id`.
    pub fn push(&mut self, id: VarId, param: Param) {
        self.entries.push((id, param));
    }

    /// Empties the binding list while retaining its capacity, so a reused
    /// [`crate::TrainStep`] re-binds without allocating.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of bound parameters.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no parameters are bound.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the bound `(VarId, Param)` pairs in binding order.
    pub fn iter(&self) -> impl Iterator<Item = &(VarId, Param)> {
        self.entries.iter()
    }

    /// Total number of scalar parameters bound.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(|(_, p)| p.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_updates_are_shared_across_clones() {
        let p = Param::new("w", Tensor::zeros(&[2, 2]));
        let q = p.clone();
        p.update(|t| t.as_mut_slice()[0] = 5.0);
        assert_eq!(q.value().as_slice()[0], 5.0);
        assert_eq!(q.name(), "w");
    }

    #[test]
    fn bind_records_leaf_and_binding() {
        let tape = Tape::new();
        let mut bindings = Bindings::new();
        let p = Param::new("w", Tensor::ones(&[3]));
        let id = p.bind(&tape, &mut bindings);
        assert_eq!(tape.value(id).as_slice(), &[1.0, 1.0, 1.0]);
        assert_eq!(bindings.len(), 1);
        assert_eq!(bindings.num_scalars(), 3);
    }
}
