//! First-class, refcounted job outputs.
//!
//! A completed job publishes its arrays as named [`JobOutput`] values:
//! a `(name, bounds, layout)` header over the array's refcounted
//! buffer. Handing an output to the next job —
//! [`JobOutput::to_array`], or the DAG runner's input binding — shares
//! the buffer instead of copying it; copy-on-write inside
//! [`DenseArray`] keeps value semantics if both sides keep writing.
//! The global [`wavefront_core::array::cow_bytes_copied`] counter bills
//! any break, so a pipeline that chains outputs correctly can assert
//! zero inter-job copies.

use std::sync::Arc;

use wavefront_core::array::{DenseArray, Layout};
use wavefront_core::region::Region;

/// One named array produced by a completed job, backed by the job's own
/// buffer without copying.
#[derive(Debug, Clone)]
pub struct JobOutput<const R: usize> {
    name: String,
    bounds: Region<R>,
    layout: Layout,
    values: Arc<Vec<f64>>,
}

impl<const R: usize> JobOutput<R> {
    /// Wrap `array` as the output named `name` (shares the buffer).
    pub(crate) fn from_array(name: impl Into<String>, array: &DenseArray<R>) -> Self {
        JobOutput {
            name: name.into(),
            bounds: array.bounds(),
            layout: array.layout(),
            values: array.shared_data(),
        }
    }

    /// The output's name (the producing program's array name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The array bounds the values cover.
    pub fn bounds(&self) -> Region<R> {
        self.bounds
    }

    /// Physical storage order of [`JobOutput::as_slice`].
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// The values, in layout order.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the output covers an empty region.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Rewrap as a [`DenseArray`] sharing the same buffer — the
    /// zero-copy path for feeding one job's output to the next.
    pub fn to_array(&self) -> DenseArray<R> {
        DenseArray::from_shared(self.bounds, self.layout, Arc::clone(&self.values))
    }
}

/// The named outputs of one completed job, in declaration order.
#[derive(Debug, Clone, Default)]
pub struct JobOutputs<const R: usize> {
    outs: Vec<JobOutput<R>>,
}

impl<const R: usize> JobOutputs<R> {
    /// An empty collection.
    pub(crate) fn new() -> Self {
        JobOutputs { outs: Vec::new() }
    }

    /// Add (or replace) the output named `out.name()`.
    pub(crate) fn insert(&mut self, out: JobOutput<R>) {
        if let Some(slot) = self.outs.iter_mut().find(|o| o.name == out.name) {
            *slot = out;
        } else {
            self.outs.push(out);
        }
    }

    /// Remove and return the output named `name`.
    pub fn take(&mut self, name: &str) -> Option<JobOutput<R>> {
        let i = self.outs.iter().position(|o| o.name == name)?;
        Some(self.outs.remove(i))
    }

    /// Borrow the output named `name`.
    pub fn get(&self, name: &str) -> Option<&JobOutput<R>> {
        self.outs.iter().find(|o| o.name == name)
    }

    /// The remaining output names, in declaration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.outs.iter().map(|o| o.name.as_str())
    }

    /// Iterate the remaining outputs.
    pub fn iter(&self) -> impl Iterator<Item = &JobOutput<R>> {
        self.outs.iter()
    }

    /// Number of outputs still held.
    pub fn len(&self) -> usize {
        self.outs.len()
    }

    /// Whether no outputs remain.
    pub fn is_empty(&self) -> bool {
        self.outs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavefront_core::index::Point;

    #[test]
    fn output_shares_the_array_buffer() {
        let r = Region::rect([0, 0], [3, 3]);
        let a = DenseArray::from_fn(r, |p| (p[0] * 4 + p[1]) as f64);
        let out = JobOutput::from_array("a", &a);
        assert_eq!(out.name(), "a");
        assert_eq!(out.len(), r.len());
        let b = out.to_array();
        assert!(a.shares_data(&b), "to_array rewraps without copying");
        assert_eq!(b.get(Point([2, 1])), 9.0);
    }

    #[test]
    fn take_removes_get_borrows() {
        let r = Region::rect([0], [3]);
        let mut outs = JobOutputs::new();
        outs.insert(JobOutput::from_array("x", &DenseArray::zeros(r)));
        outs.insert(JobOutput::from_array("y", &DenseArray::filled(r, 2.0)));
        assert_eq!(outs.len(), 2);
        assert!(outs.get("y").is_some());
        let x = outs.take("x").expect("x present");
        assert_eq!(x.name(), "x");
        assert!(outs.take("x").is_none(), "take is take");
        assert_eq!(outs.names().collect::<Vec<_>>(), ["y"]);
    }
}
