//! # xhpf — the Forge XHPF compiler model
//!
//! APR's Forge XHPF compiles subset-HPF Fortran (sequential code plus data
//! decomposition directives) into SPMD message-passing programs. This
//! crate reimplements the *run-time system* that the compiled code calls
//! and fixes the code shape XHPF emits, so the applications' "XHPF
//! versions" are mechanical transliterations of compiler output:
//!
//! * **SPMD**: every processor executes the sequential parts redundantly;
//!   writes to distributed data inside sequential code are guarded by
//!   ownership tests;
//! * **owner-computes**: parallel loop iterations are assigned to the
//!   owner of the written element, following the user's `DISTRIBUTE`
//!   directives (block or cyclic over the last dimension — columns, since
//!   Fortran arrays are column-major);
//! * **compile-time communication**: when the compiler can analyze the
//!   subscripts (shift patterns), precise ghost-column exchanges are
//!   generated;
//! * **the unknown-pattern fallback**: when subscripts go through an
//!   indirection array the compiler cannot analyze, each processor
//!   *broadcasts all the data in its partition* at the end of the parallel
//!   loop, whether it will be used or not. This is the behaviour that
//!   sinks XHPF on the irregular applications (paper §6);
//! * a light **post-loop synchronization** per parallel loop (descriptor
//!   bookkeeping in the run-time), costing one tree barrier;
//! * run-time broadcasts are **fragmented** into transport-sized packets
//!   (8 KB here), unlike the hand-coded PVMe programs which send single
//!   large messages — visible in the paper's message counts.
//!
//! ## Example
//!
//! ```
//! use sp2sim::{Cluster, ClusterConfig};
//! use mpl::Comm;
//! use xhpf::{BlockArray2, Xhpf};
//!
//! let out = Cluster::run(ClusterConfig::sp2(4), |node| {
//!     let comm = Comm::new(node);
//!     let x = Xhpf::new(&comm);
//!     // 8x16 array distributed blockwise over 16 columns, 1 ghost col.
//!     let mut a = x.block_array(8, 16, 1);
//!     for j in a.owned_cols() {
//!         for i in 0..8 {
//!             *a.at_mut(i, j) = j as f64;
//!         }
//!     }
//!     x.exchange_ghost(&mut a, false);
//!     // After the exchange the left ghost column is readable.
//!     let lo = a.owned_cols().start;
//!     if lo > 0 { a.at(0, lo - 1) } else { -1.0 }
//! });
//! assert_eq!(out.results[1], 3.0);
//! ```

#![forbid(unsafe_code)]

use std::ops::Range;

use mpl::Comm;
use sp2sim::{block_range, WordWriter};

/// A 2-D array distributed blockwise over its columns, with `ghost`
/// shadow columns on each side. Column-major storage of the local slab,
/// matching the Fortran layout of the original programs.
pub struct BlockArray2 {
    rows: usize,
    cols: usize,
    ghost: usize,
    col_lo: usize,
    col_hi: usize,
    data: Vec<f64>,
}

impl BlockArray2 {
    /// Number of rows (the undistributed dimension).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Total (global) number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Globally owned column range.
    pub fn owned_cols(&self) -> Range<usize> {
        self.col_lo..self.col_hi
    }

    /// Readable global column range (owned plus ghosts, clamped).
    pub fn readable_cols(&self) -> Range<usize> {
        self.col_lo.saturating_sub(self.ghost)..(self.col_hi + self.ghost).min(self.cols)
    }

    #[inline]
    fn off(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.rows, "row {i} out of bounds");
        debug_assert!(
            j + self.ghost >= self.col_lo && j < self.col_hi + self.ghost,
            "column {j} outside local slab [{}-{}, {}+{})",
            self.col_lo,
            self.ghost,
            self.col_hi,
            self.ghost,
        );
        let l = j + self.ghost - self.col_lo;
        l * self.rows + i
    }

    /// Element `(i, j)` with `j` a global column in the readable range.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[self.off(i, j)]
    }

    /// Mutable element access.
    #[inline]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        let o = self.off(i, j);
        &mut self.data[o]
    }

    /// A whole local column as a slice (global column index).
    pub fn col(&self, j: usize) -> &[f64] {
        let o = self.off(0, j);
        &self.data[o..o + self.rows]
    }

    /// A whole local column, mutably.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        let o = self.off(0, j);
        let rows = self.rows;
        &mut self.data[o..o + rows]
    }

    /// Local storage range of the (held, contiguous) columns `cols`.
    fn span(&self, cols: Range<usize>) -> Range<usize> {
        (cols.start + self.ghost - self.col_lo) * self.rows
            ..(cols.end + self.ghost - self.col_lo) * self.rows
    }

    /// The owned columns as one column-major slice.
    pub fn owned(&self) -> &[f64] {
        &self.data[self.span(self.owned_cols())]
    }

    /// The readable columns (owned plus ghosts) as one column-major
    /// slice, column `readable_cols().start` first: what a stencil
    /// kernel reads in place.
    pub fn readable(&self) -> &[f64] {
        &self.data[self.span(self.readable_cols())]
    }

    /// [`BlockArray2::readable`], mutably.
    pub fn readable_mut(&mut self) -> &mut [f64] {
        let span = self.span(self.readable_cols());
        &mut self.data[span]
    }
}

/// Transport fragment size of the XHPF run-time broadcasts, in f64
/// elements (8 KB), documented in the crate docs.
pub const FRAGMENT_ELEMS: usize = 1024;

/// The XHPF run-time system bound to one process.
pub struct Xhpf<'c, 'n> {
    comm: &'c Comm<'n>,
}

impl<'c, 'n> Xhpf<'c, 'n> {
    /// Bind the run-time to a communicator.
    pub fn new(comm: &'c Comm<'n>) -> Xhpf<'c, 'n> {
        Xhpf { comm }
    }

    /// The communicator.
    pub fn comm(&self) -> &'c Comm<'n> {
        self.comm
    }

    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Number of processes.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// Allocate a block-distributed 2-D array (zeroed).
    pub fn block_array(&self, rows: usize, cols: usize, ghost: usize) -> BlockArray2 {
        let r = block_range(self.rank(), self.size(), 0..cols);
        let local_cols = (r.end - r.start) + 2 * ghost;
        BlockArray2 {
            rows,
            cols,
            ghost,
            col_lo: r.start,
            col_hi: r.end,
            data: vec![0.0; local_cols * rows],
        }
    }

    /// Exchange one ghost column with each neighbour (the compiled code
    /// for an analyzable shift pattern). Two messages per neighbour pair,
    /// `2 (n - 1)` cluster-wide. Wrap-around arrays (Shallow) carry their
    /// periodic copies inside the array, so the exchange is non-periodic.
    pub fn exchange_ghost(&self, a: &mut BlockArray2, _periodic: bool) {
        assert!(a.ghost >= 1, "array allocated without shadow columns");
        let me = self.rank();
        let n = self.size();
        const TAG_L: u32 = 101;
        const TAG_R: u32 = 102;
        // Send boundary columns first (both directions in flight), then
        // receive into the ghost slots.
        if me > 0 && a.col_lo < a.col_hi {
            self.comm.send_f64s(me - 1, TAG_L, a.col(a.col_lo));
        }
        if me + 1 < n && a.col_lo < a.col_hi {
            self.comm.send_f64s(me + 1, TAG_R, a.col(a.col_hi - 1));
        }
        if me + 1 < n && a.col_hi < a.cols {
            self.comm.recv_f64s_into(me + 1, TAG_L, a.col_mut(a.col_hi));
        }
        if me > 0 && a.col_lo > 0 {
            self.comm
                .recv_f64s_into(me - 1, TAG_R, a.col_mut(a.col_lo - 1));
        }
    }

    /// Send `total` elements to `dst` the way the run-time moves bulk
    /// data, in fragments of at most [`FRAGMENT_ELEMS`], each packed
    /// straight from the `runs` of the array it is cut from (the compiled
    /// FFT transpose). An empty transfer is one empty message.
    pub fn send_fragmented<'r>(
        &self,
        dst: usize,
        tag: u32,
        total: usize,
        runs: impl Iterator<Item = &'r [f64]>,
    ) {
        let fragment = |left: usize| WordWriter::with_capacity(left.min(FRAGMENT_ELEMS));
        let mut left = total;
        let mut w = fragment(left);
        for mut run in runs {
            while !run.is_empty() {
                let room = FRAGMENT_ELEMS - w.len();
                let (head, tail) = run.split_at(room.min(run.len()));
                w.put_f64s(head);
                run = tail;
                if w.len() == FRAGMENT_ELEMS {
                    left -= FRAGMENT_ELEMS;
                    self.comm
                        .send_packed(dst, tag, std::mem::replace(&mut w, fragment(left)));
                }
            }
        }
        if !w.is_empty() || total == 0 {
            self.comm.send_packed(dst, tag, w);
        }
    }

    /// Flat fragmented broadcast of `buf` from `root`: the root packs
    /// each [`FRAGMENT_ELEMS`]-sized fragment once and sends it to every
    /// other process in rank order, one message each, all sharing that
    /// buffer; everyone else receives it into place.
    fn bcast_fragments(&self, root: usize, tag_base: u32, buf: &mut [f64]) {
        let me = self.rank();
        for (k, frag) in buf.chunks_mut(FRAGMENT_ELEMS).enumerate() {
            let tag = tag_base + k as u32 % 64;
            if me == root {
                let others = (0..self.size()).filter(|&dst| dst != me);
                self.comm.multicast_f64s(others, tag, frag);
            } else {
                self.comm.recv_f64s_into(root, tag, frag);
            }
        }
    }

    /// The unknown-pattern fallback: every process broadcasts its whole
    /// partition of `a` to all others, fragmented into
    /// [`FRAGMENT_ELEMS`]-sized packets. After this call every process
    /// holds a complete copy of the array in `full` (row-major by column:
    /// `full[j * rows + i]`).
    pub fn broadcast_partition(&self, a: &BlockArray2, full: &mut [f64]) {
        assert_eq!(full.len(), a.rows * a.cols);
        let n = self.size();
        // Copy our own block in.
        for j in a.owned_cols() {
            full[j * a.rows..(j + 1) * a.rows].copy_from_slice(a.col(j));
        }
        // Flat fragmented broadcast from every process in rank order.
        for root in 0..n {
            let r = block_range(root, n, 0..a.cols);
            self.bcast_fragments(root, 200, &mut full[r.start * a.rows..r.end * a.rows]);
        }
    }

    /// Broadcast a plain buffer from every rank (used by the compiled NBF
    /// code for the force buffers): rank `r`'s `mine` ends up in
    /// `all[r]`. Fragmented like [`Xhpf::broadcast_partition`]. The
    /// vectors of `all` are resized and received into, so a caller that
    /// keeps them across calls allocates them once.
    pub fn broadcast_buffers(&self, mine: &[f64], all: &mut [Vec<f64>]) {
        let me = self.rank();
        all[me].clear();
        all[me].extend_from_slice(mine);
        // The length message's buffer, refilled by every broadcast.
        let mut len_msg = Vec::new();
        for (root, buf) in all.iter_mut().enumerate() {
            len_msg.clear();
            len_msg.push(if me == root { mine.len() } else { 0 } as f64);
            self.comm.bcast_f64s(root, &mut len_msg);
            buf.resize(len_msg[0] as usize, 0.0);
            self.bcast_fragments(root, 300, buf);
        }
    }

    /// Post-loop synchronization of the run-time (descriptor bookkeeping):
    /// one tree barrier, `2 (n - 1)` messages.
    pub fn loop_sync(&self) {
        self.comm.barrier();
    }

    /// Global sum reduction to all (compiled code for reduction clauses).
    pub fn reduce_sum(&self, x: f64) -> f64 {
        self.comm.allreduce_scalar(mpl::ReduceOp::Sum, x)
    }

    /// Global max reduction to all.
    pub fn reduce_max(&self, x: f64) -> f64 {
        self.comm.allreduce_scalar(mpl::ReduceOp::Max, x)
    }

    /// Global min reduction to all.
    pub fn reduce_min(&self, x: f64) -> f64 {
        self.comm.allreduce_scalar(mpl::ReduceOp::Min, x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2sim::{Cluster, ClusterConfig};

    #[test]
    fn ghost_exchange_nonperiodic() {
        let out = Cluster::run(ClusterConfig::sp2(4), |node| {
            let comm = Comm::new(node);
            let x = Xhpf::new(&comm);
            let mut a = x.block_array(4, 16, 1);
            for j in a.owned_cols() {
                for i in 0..4 {
                    *a.at_mut(i, j) = (10 * j + i) as f64;
                }
            }
            x.exchange_ghost(&mut a, false);
            let r = a.readable_cols();
            let mut vals = Vec::new();
            if r.start < a.owned_cols().start {
                vals.push(a.at(2, r.start));
            }
            if r.end > a.owned_cols().end {
                vals.push(a.at(2, a.owned_cols().end));
            }
            vals
        });
        // Proc 1 owns 4..8: left ghost = col 3, right ghost = col 8.
        assert_eq!(out.results[1], vec![32.0, 82.0]);
        // Proc 0 has only a right ghost (col 4).
        assert_eq!(out.results[0], vec![42.0]);
        // Proc 3 has only a left ghost (col 11).
        assert_eq!(out.results[3], vec![112.0]);
    }

    #[test]
    fn owned_and_readable_slices_are_column_major() {
        let out = Cluster::run(ClusterConfig::sp2(3), |node| {
            let comm = Comm::new(node);
            let x = Xhpf::new(&comm);
            let mut a = x.block_array(2, 9, 1);
            for j in a.owned_cols() {
                a.col_mut(j).fill(j as f64);
            }
            x.exchange_ghost(&mut a, false);
            (a.owned().to_vec(), a.readable_mut().to_vec())
        });
        // Edge processes have no slot for the missing neighbour's column.
        let cols = |r: Range<usize>| r.flat_map(|j| [j as f64; 2]).collect::<Vec<_>>();
        for (me, (owned, readable)) in out.results.into_iter().enumerate() {
            assert_eq!(owned, cols(3 * me..3 * me + 3));
            assert_eq!(
                readable,
                cols((3 * me).saturating_sub(1)..(3 * me + 4).min(9))
            );
        }
    }

    #[test]
    fn broadcast_partition_replicates_everything() {
        let out = Cluster::run(ClusterConfig::sp2(3), |node| {
            let comm = Comm::new(node);
            let x = Xhpf::new(&comm);
            let mut a = x.block_array(8, 9, 0);
            for j in a.owned_cols() {
                for i in 0..8 {
                    *a.at_mut(i, j) = (j * 8 + i) as f64;
                }
            }
            let mut full = vec![0.0; 8 * 9];
            x.broadcast_partition(&a, &mut full);
            full
        });
        let expect: Vec<f64> = (0..72).map(|k| k as f64).collect();
        for r in out.results {
            assert_eq!(r, expect);
        }
    }

    #[test]
    fn broadcast_partition_fragments_messages() {
        // 4096 elements per partition over 2 procs -> 4 fragments of 1024
        // each way; 1 proc * 4 frags * 1 dest * 2 roots = 8 data messages.
        let out = Cluster::run(ClusterConfig::sp2(2), |node| {
            let comm = Comm::new(node);
            let x = Xhpf::new(&comm);
            let a = x.block_array(1024, 8, 0);
            let mut full = vec![0.0; 1024 * 8];
            x.broadcast_partition(&a, &mut full);
        });
        assert_eq!(out.stats.total_messages(), 8);
    }

    #[test]
    fn broadcast_buffers_collects_all() {
        let out = Cluster::run(ClusterConfig::sp2(3), |node| {
            let comm = Comm::new(node);
            let x = Xhpf::new(&comm);
            let mine = vec![x.rank() as f64; 5];
            let mut all: Vec<Vec<f64>> = vec![Vec::new(); 3];
            x.broadcast_buffers(&mine, &mut all);
            all
        });
        for r in out.results {
            for (rank, buf) in r.iter().enumerate() {
                assert_eq!(buf, &vec![rank as f64; 5]);
            }
        }
    }

    #[test]
    fn reductions() {
        let out = Cluster::run(ClusterConfig::sp2(5), |node| {
            let comm = Comm::new(node);
            let x = Xhpf::new(&comm);
            let me = x.rank() as f64;
            (x.reduce_sum(me), x.reduce_min(me), x.reduce_max(me))
        });
        for (s, lo, hi) in out.results {
            assert_eq!(s, 10.0);
            assert_eq!(lo, 0.0);
            assert_eq!(hi, 4.0);
        }
    }
}
