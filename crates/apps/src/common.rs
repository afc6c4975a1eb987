//! Shared infrastructure for the application implementations: column-major
//! slabs (so all program versions run the same kernels), the measurement
//! meter (the paper times only the steady-state iterations), and checksum
//! comparison helpers.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut, Range};

use sp2sim::{Node, StatsSnapshot};
use spf::{block_range, LoopCtl, Spf, Touch};

/// A column-major 2-D slab: columns `col0 .. col0 + ncols`, `rows` rows.
///
/// Every version of an application lays its working set out as slabs and
/// runs the shared numerical kernels on them, which guarantees
/// bit-identical numerics across the program versions. The storage `D`
/// is whatever holds the words: an owned `Vec<f64>` (the sequential and
/// message-passing versions, private scratch), or a slice borrowed from
/// a DSM view (`&[f64]` of a `ReadView`, `&mut [f64]` of a `WriteView`)
/// so that the shared-memory versions compute in place on the page
/// frames.
#[derive(Clone, Debug)]
pub struct Slab<D = Vec<f64>> {
    /// Number of rows (contiguous dimension, Fortran layout).
    pub rows: usize,
    /// First (global) column held.
    pub col0: usize,
    /// Column-major data: `data[(j - col0) * rows + i]`.
    pub data: D,
}

impl Slab {
    /// Zero-filled slab covering columns `col0 .. col0 + ncols`.
    pub fn new(rows: usize, col0: usize, ncols: usize) -> Slab {
        Slab {
            rows,
            col0,
            data: vec![0.0; rows * ncols],
        }
    }
}

impl<D: Deref<Target = [f64]>> Slab<D> {
    /// Slab over existing storage (must be `rows * ncols` long): an owned
    /// buffer, or the slice of a DSM view, which is not copied.
    pub fn over(rows: usize, col0: usize, data: D) -> Slab<D> {
        debug_assert_eq!(data.len() % rows, 0);
        Slab { rows, col0, data }
    }

    /// Slab over a view of the whole columns of touch `t`.
    pub fn of(t: &Touch, data: D) -> Slab<D> {
        Slab::over(t.at.stride, t.cols.start, data)
    }

    /// Number of columns held.
    pub fn ncols(&self) -> usize {
        self.data.len() / self.rows
    }

    /// Global column range held.
    pub fn cols(&self) -> std::ops::Range<usize> {
        self.col0..self.col0 + self.ncols()
    }

    /// Element `(i, j)` with `j` a global column index.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows);
        debug_assert!(self.cols().contains(&j), "col {j} not in {:?}", self.cols());
        self.data[(j - self.col0) * self.rows + i]
    }

    /// Column `j` as a slice.
    pub fn col(&self, j: usize) -> &[f64] {
        self.col_block(j..j + 1)
    }

    /// Storage range of the (held, contiguous) columns `cols`.
    fn span(&self, cols: std::ops::Range<usize>) -> std::ops::Range<usize> {
        (cols.start - self.col0) * self.rows..(cols.end - self.col0) * self.rows
    }

    /// Columns `cols` as one column-major slice.
    pub fn col_block(&self, cols: std::ops::Range<usize>) -> &[f64] {
        &self.data[self.span(cols)]
    }
}

impl<D: DerefMut<Target = [f64]>> Slab<D> {
    /// Set element `(i, j)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows);
        debug_assert!(self.cols().contains(&j));
        self.data[(j - self.col0) * self.rows + i] = v;
    }

    /// Column `j`, mutable.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        self.col_block_mut(j..j + 1)
    }

    /// Columns `cols` as one column-major slice, mutable.
    pub fn col_block_mut(&mut self, cols: std::ops::Range<usize>) -> &mut [f64] {
        let span = self.span(cols);
        &mut self.data[span]
    }

    /// Copy column `from` onto column `to` of this slab.
    pub fn copy_col_within(&mut self, from: usize, to: usize) {
        let (src, dst) = (self.span(from..from + 1), self.span(to..to + 1));
        self.data.copy_within(src, dst.start);
    }

    /// Copy rows `rows` of columns `cols` out of `other` (which must hold
    /// them), leaving every other element as it is.
    pub fn copy_block_from<S: Deref<Target = [f64]>>(
        &mut self,
        other: &Slab<S>,
        rows: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
    ) {
        for j in cols {
            self.col_mut(j)[rows.clone()].copy_from_slice(&other.col(j)[rows.clone()]);
        }
    }
}

/// Timed-region measurement: per-node virtual elapsed time plus a
/// cluster-wide message-statistics delta (taken on node 0 between
/// wall-clock rendezvous so the cut is consistent).
pub struct Meter {
    t0: f64,
    snap0: Option<StatsSnapshot>,
}

/// Begin the timed region. Call on every node at the same program point
/// (typically right after the warm-up barrier).
pub fn meter_start(node: &Node) -> Meter {
    node.rendezvous();
    let snap0 = (node.id() == 0).then(|| node.stats().snapshot());
    node.rendezvous();
    Meter {
        t0: node.now().us(),
        snap0,
    }
}

/// End the timed region: per-node elapsed virtual microseconds and, on
/// node 0, the message statistics of the region.
pub fn meter_stop(node: &Node, m: Meter) -> (f64, Option<StatsSnapshot>) {
    node.rendezvous();
    let delta = m.snap0.map(|s0| node.stats().snapshot().delta(&s0));
    node.rendezvous();
    (node.now().us() - m.t0, delta)
}

/// The timed region of an SPF program. The master opens and closes it
/// by dispatching two empty parallel loops, so every node meters at the
/// same program point; the loop bodies borrow this, so declare it
/// before the [`Spf`] that stores them.
pub(crate) struct SpfMeter<'n> {
    node: &'n Node,
    started: RefCell<Option<Meter>>,
    measured: RefCell<Option<(f64, Option<StatsSnapshot>)>>,
}

impl<'n> SpfMeter<'n> {
    pub(crate) fn new(node: &'n Node) -> SpfMeter<'n> {
        SpfMeter {
            node,
            started: RefCell::new(None),
            measured: RefCell::new(None),
        }
    }

    /// Register the `(start, stop)` loops. Call before registering any
    /// other loop: they are loop ids 0 and 1 in every dispatch message
    /// and trace span of every SPF program.
    pub(crate) fn register<'t>(&'t self, spf: &Spf<'t, '_>) -> (usize, usize) {
        let start = spf.register(|_: &LoopCtl| {
            *self.started.borrow_mut() = Some(meter_start(self.node));
        });
        let stop = spf.register(|_: &LoopCtl| {
            let m = self.started.borrow_mut().take().expect("meter started");
            *self.measured.borrow_mut() = Some(meter_stop(self.node, m));
        });
        (start, stop)
    }

    /// What [`meter_stop`] returned when the stop loop ran.
    pub(crate) fn take(&self) -> (f64, Option<StatsSnapshot>) {
        self.measured.borrow_mut().take().expect("meter ran")
    }
}

/// Node `q`'s block of `iters` under the block schedule, `None` when it
/// is empty: where a block-scheduled loop's footprint starts.
pub(crate) fn share(iters: &Range<usize>, q: usize, np: usize) -> Option<Range<usize>> {
    Some(block_range(q, np, iters.clone())).filter(|b| !b.is_empty())
}

/// Relative comparison of checksum vectors: every component must agree to
/// `tol` relative error (absolute near zero).
pub fn checksums_close(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= tol * scale
        })
}

/// Deterministic pseudo-random value in `[0, 1)` derived from a cell
/// coordinate — used to build identical workloads in every version
/// without sharing state.
pub fn hash01(seed: u64, k: u64) -> f64 {
    let mut r = sp2sim::SplitMix64::new(seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    r.next_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_indexing_is_column_major() {
        let mut s = Slab::new(4, 10, 3);
        s.set(2, 11, 7.0);
        assert_eq!(s.at(2, 11), 7.0);
        assert_eq!(s.data[4 + 2], 7.0); // row 2 of the second 4-row column
        assert_eq!(s.cols(), 10..13);
        assert_eq!(s.ncols(), 3);
    }

    #[test]
    fn slab_col_slices() {
        let mut s = Slab::new(3, 0, 2);
        s.col_mut(1).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(s.col(1), &[1.0, 2.0, 3.0]);
        assert_eq!(s.col(0), &[0.0; 3]);
    }

    #[test]
    fn column_blocks_and_copies() {
        let mut a = Slab::new(2, 1, 4);
        for j in 1..5 {
            a.col_mut(j).copy_from_slice(&[j as f64, -(j as f64)]);
        }
        assert_eq!(a.col_block(2..4), &[2.0, -2.0, 3.0, -3.0]);
        a.copy_col_within(4, 1);
        assert_eq!(a.col(1), &[4.0, -4.0]);
        a.col_block_mut(2..4).fill(0.5);
        assert_eq!(a.data, [4.0, -4.0, 0.5, 0.5, 0.5, 0.5, 4.0, -4.0]);
        let mut b = Slab::new(2, 2, 2);
        b.copy_block_from(&a, 1..2, 2..4);
        assert_eq!(b.data, [0.0, 0.5, 0.0, 0.5]);
    }

    #[test]
    fn checksum_tolerance() {
        assert!(checksums_close(&[1.0, 2.0], &[1.0, 2.0 + 1e-12], 1e-9));
        assert!(!checksums_close(&[1.0], &[1.1], 1e-9));
        assert!(!checksums_close(&[1.0], &[1.0, 2.0], 1e-9));
        // Near zero, absolute comparison applies.
        assert!(checksums_close(&[0.0], &[1e-12], 1e-9));
    }

    #[test]
    fn hash01_is_deterministic_and_bounded() {
        for k in 0..100 {
            let a = hash01(42, k);
            assert_eq!(a, hash01(42, k));
            assert!((0.0..1.0).contains(&a));
        }
        assert_ne!(hash01(42, 1), hash01(43, 1));
    }
}
