//! Dense rank-`R` arrays of `f64` declared over a [`Region`].
//!
//! ZPL arrays are declared over a region and may be read/written at any
//! index of that region. The physical [`Layout`] (row- vs column-major)
//! does not affect semantics but drives the address traces consumed by the
//! cache simulator — Fortran arrays (the paper's benchmarks) are
//! column-major, which is what makes loop interchange matter in Figure 6.

use std::cell::Cell;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crate::index::{Offset, Point};
use crate::region::Region;

/// Bytes copied by copy-on-write breaks across every array in the
/// process (monotonic). A write to an array whose buffer is shared
/// clones the whole buffer first; this counter bills those clones so
/// zero-copy pipelines can assert the counter stays flat.
static COW_BYTES: AtomicU64 = AtomicU64::new(0);

/// Total bytes cloned by copy-on-write breaks since process start.
///
/// Sharing an array (`clone`, [`DenseArray::shared_data`],
/// [`DenseArray::from_shared`]) is free; the cost lands here only when
/// one of the sharers writes. Sample before and after a pipeline stage
/// and subtract to measure the copies that stage induced.
pub fn cow_bytes_copied() -> u64 {
    COW_BYTES.load(Ordering::Relaxed)
}

/// Physical storage order of an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layout {
    /// Last dimension contiguous (C order).
    RowMajor,
    /// First dimension contiguous (Fortran order).
    ColMajor,
}

impl Layout {
    /// Linear element offset of index `p` in an array over `bounds`
    /// stored in this order.
    ///
    /// Panics in debug builds if `p` is out of bounds.
    #[inline]
    pub fn offset<const R: usize>(self, bounds: Region<R>, p: Point<R>) -> usize {
        debug_assert!(bounds.contains(p), "index {p} out of bounds {bounds}");
        let lo = bounds.lo();
        let ext = bounds.extents();
        match self {
            Layout::RowMajor => {
                let mut off = 0usize;
                for k in 0..R {
                    off = off * ext[k] as usize + (p[k] - lo[k]) as usize;
                }
                off
            }
            Layout::ColMajor => {
                let mut off = 0usize;
                for k in (0..R).rev() {
                    off = off * ext[k] as usize + (p[k] - lo[k]) as usize;
                }
                off
            }
        }
    }
}

/// A dense array of `f64` over a rectangular region.
///
/// The buffer is refcounted with copy-on-write semantics: `clone` (and
/// [`Store::clone`](crate::program::Store)) share the buffer, and the
/// first write through a sharing array clones it (billed to
/// [`cow_bytes_copied`]). Value semantics are unchanged — only the cost
/// model of clone-then-write moved.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseArray<const R: usize> {
    bounds: Region<R>,
    layout: Layout,
    data: Arc<Vec<f64>>,
}

impl<const R: usize> DenseArray<R> {
    /// Allocate an array over `bounds`, zero-filled, row-major.
    pub fn zeros(bounds: Region<R>) -> Self {
        Self::filled(bounds, 0.0)
    }

    /// Allocate an array over `bounds` filled with `v`, row-major.
    pub fn filled(bounds: Region<R>, v: f64) -> Self {
        DenseArray { bounds, layout: Layout::RowMajor, data: Arc::new(vec![v; bounds.len()]) }
    }

    /// Allocate with an explicit layout.
    pub fn with_layout(bounds: Region<R>, layout: Layout, v: f64) -> Self {
        DenseArray { bounds, layout, data: Arc::new(vec![v; bounds.len()]) }
    }

    /// Wrap an existing shared buffer (in `layout` order over `bounds`)
    /// without copying. Panics if the buffer length does not match the
    /// region.
    pub fn from_shared(bounds: Region<R>, layout: Layout, data: Arc<Vec<f64>>) -> Self {
        assert_eq!(
            data.len(),
            bounds.len(),
            "shared buffer length must match the region"
        );
        DenseArray { bounds, layout, data }
    }

    /// The refcounted buffer, shared without copying.
    #[inline]
    pub fn shared_data(&self) -> Arc<Vec<f64>> {
        Arc::clone(&self.data)
    }

    /// Whether `self` and `other` share one physical buffer.
    #[inline]
    pub fn shares_data(&self, other: &DenseArray<R>) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// An eager deep copy with a uniquely-owned buffer. Unlike `clone`
    /// (which shares and defers the copy to the first write), the cost
    /// is paid here, up front, and is *not* billed to
    /// [`cow_bytes_copied`] — use it to keep a later write phase
    /// copy-free and honestly timed.
    pub fn detached(&self) -> Self {
        DenseArray {
            bounds: self.bounds,
            layout: self.layout,
            data: Arc::new(self.data.as_ref().clone()),
        }
    }

    /// Mutable access to the buffer, breaking sharing first if needed.
    ///
    /// The unique-owner fast path skips `Arc::make_mut`: that call pays
    /// two atomic RMWs even when no sharing exists, which is ruinous on
    /// per-element paths like `set` and message unmarshalling.
    #[inline]
    fn data_mut(&mut self) -> &mut Vec<f64> {
        if Arc::strong_count(&self.data) == 1 {
            debug_assert_eq!(Arc::weak_count(&self.data), 0);
            // SAFETY: we hold `&mut self`, the strong count is 1, and
            // this module never creates `Weak` refs to `data`, so this
            // is the only handle to the allocation.
            unsafe { &mut *(Arc::as_ptr(&self.data) as *mut Vec<f64>) }
        } else {
            COW_BYTES.fetch_add((self.data.len() * 8) as u64, Ordering::Relaxed);
            Arc::make_mut(&mut self.data)
        }
    }

    /// Expose the buffer of an array a parallel run will **write**, for
    /// workers that update it in place. Sharing is broken *here*, on the
    /// calling thread (one copy, billed to [`cow_bytes_copied`] like any
    /// other first write), so the returned pointer is to a buffer no
    /// other array shares.
    pub fn share_for_write(&mut self) -> SharedCells {
        let buf = self.data_mut();
        SharedCells {
            ptr: AtomicPtr::new(buf.as_mut_ptr()),
            len: buf.len(),
        }
    }

    /// Expose the buffer of an array a parallel run will only **read**.
    /// Nothing is copied and the buffer may stay shared with other
    /// arrays; the holder must never write through the view.
    pub fn share_for_read(&self) -> SharedCells {
        // `Vec::as_ptr` hands back the vector's own allocation pointer
        // (not one re-derived from a `&[f64]`), so viewing it as cells
        // creates no reference that forbids the shared readers.
        SharedCells {
            ptr: AtomicPtr::new(Vec::as_ptr(&self.data).cast_mut()),
            len: self.data.len(),
        }
    }

    /// Build from a function of the index.
    pub fn from_fn(bounds: Region<R>, mut f: impl FnMut(Point<R>) -> f64) -> Self {
        let mut a = Self::zeros(bounds);
        for p in bounds.iter() {
            a.set(p, f(p));
        }
        a
    }

    /// The array's declared bounds.
    #[inline]
    pub fn bounds(&self) -> Region<R> {
        self.bounds
    }

    /// The array's physical layout.
    #[inline]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Linear element offset of index `p` under the array's layout.
    ///
    /// Panics in debug builds if `p` is out of bounds.
    #[inline]
    pub fn linear_offset(&self, p: Point<R>) -> usize {
        self.layout.offset(self.bounds, p)
    }

    /// Read the element at `p`.
    #[inline]
    pub fn get(&self, p: Point<R>) -> f64 {
        self.data[self.linear_offset(p)]
    }

    /// Write the element at `p`.
    #[inline]
    pub fn set(&mut self, p: Point<R>, v: f64) {
        let off = self.linear_offset(p);
        self.data_mut()[off] = v;
    }

    /// Read at `p + d` (the shift operator's access pattern).
    #[inline]
    pub fn get_shifted(&self, p: Point<R>, d: Offset<R>) -> f64 {
        self.get(p + d)
    }

    /// Fill the whole array with `v`.
    pub fn fill(&mut self, v: f64) {
        self.data_mut().fill(v);
    }

    /// Raw data slice (layout order).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data slice (layout order), breaking sharing first.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.data_mut()
    }

    /// Copy the values of `src` over `region` into `self`. Both arrays must
    /// contain `region`.
    pub fn copy_region_from(&mut self, src: &DenseArray<R>, region: Region<R>) {
        debug_assert!(self.bounds.contains_region(&region));
        debug_assert!(src.bounds.contains_region(&region));
        if region.is_empty() {
            return;
        }
        // Same layout: the region decomposes into runs that are
        // contiguous in both arrays along the stride-1 dimension, so
        // copy whole rows with memcpy instead of per-point offset math.
        if self.layout == src.layout {
            let f = match self.layout {
                Layout::RowMajor => R - 1,
                Layout::ColMajor => 0,
            };
            let run = region.extent(f).max(0) as usize;
            let (lo, hi) = (region.lo(), region.hi());
            let mut p = lo;
            loop {
                let d0 = self.linear_offset(Point(p));
                let s0 = src.linear_offset(Point(p));
                self.data_mut()[d0..d0 + run].copy_from_slice(&src.data[s0..s0 + run]);
                let mut advanced = false;
                for k in (0..R).rev() {
                    if k == f {
                        continue;
                    }
                    if p[k] < hi[k] {
                        p[k] += 1;
                        advanced = true;
                        break;
                    }
                    p[k] = lo[k];
                }
                if !advanced {
                    return;
                }
            }
        }
        for p in region.iter() {
            self.set(p, src.get(p));
        }
    }

    /// Maximum absolute difference from `other` over `region`.
    pub fn max_abs_diff(&self, other: &DenseArray<R>, region: Region<R>) -> f64 {
        region
            .iter()
            .map(|p| (self.get(p) - other.get(p)).abs())
            .fold(0.0, f64::max)
    }

    /// Exact equality over a region (bitwise on f64 values).
    pub fn region_eq(&self, other: &DenseArray<R>, region: Region<R>) -> bool {
        region
            .iter()
            .all(|p| self.get(p).to_bits() == other.get(p).to_bits())
    }
}

/// The buffer of one [`DenseArray`] as a pointer that may cross to
/// other threads: what [`DenseArray::share_for_write`] and
/// [`DenseArray::share_for_read`] return, and what the threaded engine's
/// workers turn back into the `&[Cell<f64>]` views the tile kernels run
/// on. Holding one is harmless; only [`SharedCells::cells`] touches
/// memory.
///
/// The pointer sits in an [`AtomicPtr`] purely so the type is `Send +
/// Sync` by construction — it is written once, here, and read with
/// `Relaxed`; the synchronisation that makes the *pointee* safe to touch
/// is the caller's (see `cells`).
#[derive(Debug)]
pub struct SharedCells {
    ptr: AtomicPtr<f64>,
    len: usize,
}

impl SharedCells {
    /// View the buffer as a slice of cells (bounds-checked like any
    /// slice; `Cell<f64>` has the layout of `f64`).
    ///
    /// # Safety
    ///
    /// For as long as the returned view is used, the caller guarantees:
    ///
    /// 1. the array this came from is neither dropped, resized, written
    ///    through `&mut` nor made to reallocate (a copy-on-write break
    ///    is a reallocation) — in practice: the thread owning the
    ///    `Store` does not touch it until every view is gone;
    /// 2. if it came from [`DenseArray::share_for_read`], nothing is
    ///    ever `set` through the view;
    /// 3. no element is written through one view while another thread
    ///    reads or writes it through another, unless a release/acquire
    ///    edge orders the two accesses.
    pub unsafe fn cells(&self) -> &[Cell<f64>] {
        std::slice::from_raw_parts(self.ptr.load(Ordering::Relaxed) as *const Cell<f64>, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_fill() {
        let r = Region::rect([1, 1], [3, 3]);
        let mut a = DenseArray::zeros(r);
        assert_eq!(a.get(Point([2, 2])), 0.0);
        a.fill(7.5);
        assert_eq!(a.get(Point([1, 3])), 7.5);
    }

    #[test]
    fn set_get_round_trip_every_index() {
        let r = Region::rect([-1, 0], [1, 2]);
        let mut a = DenseArray::zeros(r);
        for (i, p) in r.iter().enumerate() {
            a.set(p, i as f64);
        }
        for (i, p) in r.iter().enumerate() {
            assert_eq!(a.get(p), i as f64);
        }
    }

    #[test]
    fn row_major_offsets_are_contiguous_in_last_dim() {
        let r = Region::rect([0, 0], [2, 3]);
        let a = DenseArray::zeros(r);
        let o1 = a.linear_offset(Point([1, 1]));
        let o2 = a.linear_offset(Point([1, 2]));
        assert_eq!(o2, o1 + 1);
        let o3 = a.linear_offset(Point([2, 1]));
        assert_eq!(o3, o1 + 4); // extent of dim 1 is 4
    }

    #[test]
    fn col_major_offsets_are_contiguous_in_first_dim() {
        let r = Region::rect([0, 0], [2, 3]);
        let a = DenseArray::with_layout(r, Layout::ColMajor, 0.0);
        let o1 = a.linear_offset(Point([1, 1]));
        let o2 = a.linear_offset(Point([2, 1]));
        assert_eq!(o2, o1 + 1);
        let o3 = a.linear_offset(Point([1, 2]));
        assert_eq!(o3, o1 + 3); // extent of dim 0 is 3
    }

    #[test]
    fn offsets_are_a_bijection() {
        let r = Region::rect([2, -1, 0], [4, 1, 2]);
        for layout in [Layout::RowMajor, Layout::ColMajor] {
            let a = DenseArray::with_layout(r, layout, 0.0);
            let mut seen = vec![false; r.len()];
            for p in r.iter() {
                let off = a.linear_offset(p);
                assert!(!seen[off], "offset {off} reused at {p}");
                seen[off] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn shifted_reads() {
        let r = Region::rect([0, 0], [4, 4]);
        let a = DenseArray::from_fn(r, |p| (p[0] * 10 + p[1]) as f64);
        assert_eq!(a.get_shifted(Point([2, 2]), Offset([-1, 0])), 12.0);
        assert_eq!(a.get_shifted(Point([2, 2]), Offset([0, 1])), 23.0);
    }

    #[test]
    fn copy_region_and_compare() {
        let r = Region::rect([0, 0], [3, 3]);
        let a = DenseArray::from_fn(r, |p| (p[0] + p[1]) as f64);
        let mut b = DenseArray::zeros(r);
        let inner = Region::rect([1, 1], [2, 2]);
        b.copy_region_from(&a, inner);
        assert!(a.region_eq(&b, inner));
        assert!(!a.region_eq(&b, r));
        assert_eq!(a.max_abs_diff(&b, inner), 0.0);
        assert!(a.max_abs_diff(&b, r) > 0.0);
    }

    #[test]
    fn from_fn_visits_every_point() {
        let r = Region::rect([0], [9]);
        let a = DenseArray::from_fn(r, |p| p[0] as f64 * 2.0);
        assert_eq!(a.get(Point([9])), 18.0);
    }

    #[test]
    fn clone_shares_until_write_then_isolates() {
        let r = Region::rect([0, 0], [3, 3]);
        let a = DenseArray::from_fn(r, |p| (p[0] * 4 + p[1]) as f64);
        let mut b = a.clone();
        assert!(a.shares_data(&b), "clone shares the buffer");

        let before = cow_bytes_copied();
        b.set(Point([1, 1]), 99.0);
        assert!(!a.shares_data(&b), "first write breaks sharing");
        assert!(
            cow_bytes_copied() >= before + (r.len() * 8) as u64,
            "the break bills the whole buffer"
        );
        assert_eq!(a.get(Point([1, 1])), 5.0, "the original is untouched");
        assert_eq!(b.get(Point([1, 1])), 99.0);

        // Further writes to the now-unique buffer are free.
        let before = cow_bytes_copied();
        b.fill(0.0);
        b.set(Point([2, 2]), 1.0);
        assert_eq!(cow_bytes_copied(), before);
    }

    #[test]
    fn shared_cells_alias_the_buffer_and_only_a_write_share_copies() {
        let r = Region::rect([0, 0], [3, 3]);
        let a = DenseArray::from_fn(r, |p| (p[0] * 4 + p[1]) as f64);
        let mut b = a.clone();

        // A read share copies nothing and sees the shared buffer.
        let before = cow_bytes_copied();
        let view = b.share_for_read();
        // SAFETY: `b` is not touched while `cells` lives, nothing is
        // set through it, and this is the only thread.
        let cells = unsafe { view.cells() };
        assert_eq!(cells[b.linear_offset(Point([1, 1]))].get(), 5.0);
        assert!(a.shares_data(&b));

        // A write share breaks the sharing once, up front; writes
        // through the cells then land in `b` alone.
        let view = b.share_for_write();
        assert!(!a.shares_data(&b));
        assert!(cow_bytes_copied() >= before + (r.len() * 8) as u64);
        let off = b.linear_offset(Point([2, 3]));
        // SAFETY: as above, and the buffer is uniquely `b`'s.
        let cells = unsafe { view.cells() };
        cells[off].set(-1.0);
        assert_eq!(b.get(Point([2, 3])), -1.0);
        assert_eq!(a.get(Point([2, 3])), 11.0);
    }

    #[test]
    fn from_shared_wraps_without_copying() {
        let r = Region::rect([0, 0], [2, 2]);
        let a = DenseArray::from_fn(r, |p| (p[0] - p[1]) as f64);
        let b = DenseArray::from_shared(r, a.layout(), a.shared_data());
        assert!(a.shares_data(&b));
        assert!(a.region_eq(&b, r));
    }

    #[test]
    #[should_panic(expected = "shared buffer length")]
    fn from_shared_rejects_wrong_length() {
        let r = Region::rect([0, 0], [2, 2]);
        let _ = DenseArray::from_shared(r, Layout::RowMajor, Arc::new(vec![0.0; 3]));
    }
}
