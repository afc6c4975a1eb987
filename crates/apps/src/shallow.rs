//! Shallow: the NCAR shallow-water benchmark (paper §5.2).
//!
//! Thirteen `(n+1) × (n+1)` arrays in wrap-around format, three steps per
//! iteration, each a main loop updating three or four arrays from the
//! others, followed by wrap-around copying of the modified arrays. The
//! wrap copying has two parts: the boundary-**row** copy (one element per
//! column — parallelized across columns, and local to each partition)
//! and the boundary-**column** copy, which is contiguous in the
//! column-major layout and therefore executed sequentially — by the
//! processor owning column 0 in the hand-coded versions, and by the
//! *master as part of the sequential code* under SPF (the extra
//! communication the paper blames for SPF's 5.71 vs 6.21).
//!
//! * **TreadMarks (hand)**: three barriers per iteration, merged
//!   row-wraps, private nothing (all 13 arrays shared);
//! * **SPF**: five parallel loops per iteration (three steps + two
//!   row-wrap loops) plus master-executed column wraps;
//! * **SPF+CRI**: the five loops in three fork-joins, as the footprints
//!   let a row wrap share its step loop's dispatch (Hand-opt's merge,
//!   derived), and every page only one worker touches kept out of the
//!   protocol (`spf`'s derived privatization);
//! * **Hand-opt** (§5.2): merged loops (row wraps fused into the step
//!   loops, 3 dispatches) plus communication aggregation — the paper
//!   measures 5.96 vs 6.21 for hand-coded shared memory;
//! * **XHPF**: per-array ghost exchanges, per-loop synchronization,
//!   column wrap as an owner-computes point-to-point transfer;
//! * **PVMe (hand)**: one aggregated boundary message per neighbour per
//!   exchange point.

use std::ops::{Deref, DerefMut, Range};

use mpl::Comm;
use sp2sim::{Node, WordReader, WordWriter};
use spf::Mode::{self, Read, Update, Write};
use spf::{block_range, Cols, LoopCtl, Next, Schedule, Spf, Touch};
use treadmarks::{Tmk, TmkConfig};
use xhpf::Xhpf;

use crate::common::{meter_start, meter_stop, share, Slab, SpfMeter};
use crate::runner::{NodeOut, Version};

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Grid cells per edge; arrays are `(n+1)²` (paper: 1024).
    pub n: usize,
    /// Timed iterations (paper: 50 of 51, the first excluded).
    pub iters: usize,
}

/// Paper-sized workload at `scale = 1.0`.
pub fn params(scale: f64) -> Params {
    if scale >= 1.0 {
        Params { n: 1024, iters: 50 }
    } else {
        Params {
            n: ((1024.0 * scale) as usize).max(16),
            iters: ((50.0 * scale).round() as usize).max(3),
        }
    }
}

/// Per-point virtual costs of the three steps, calibrated against a
/// ~42 s paper-size sequential run.
const S1_US: f64 = 0.30;
const S2_US: f64 = 0.30;
const S3_US: f64 = 0.20;

const DT: f64 = 90.0;
const DX: f64 = 1.0e5;
const DY: f64 = 1.0e5;
const A: f64 = 1.0e6;
const ALPHA: f64 = 0.001;

/// The 13 arrays, by index.
const NARR: usize = 13;
const U: usize = 0;
const V: usize = 1;
const P: usize = 2;
const UNEW: usize = 3;
const VNEW: usize = 4;
const PNEW: usize = 5;
const UOLD: usize = 6;
const VOLD: usize = 7;
const POLD: usize = 8;
const CU: usize = 9;
const CV: usize = 10;
const Z: usize = 11;
const H: usize = 12;

fn psi(n: usize, i: usize, j: usize) -> f64 {
    let tpi = 2.0 * std::f64::consts::PI;
    let di = tpi / n as f64;
    let dj = tpi / n as f64;
    A * ((i as f64 + 0.5) * di).sin() * ((j as f64 + 0.5) * dj).sin()
}

/// Initial value of array `which` at `(i, j)` — periodic by construction,
/// so each version can initialize its own columns locally.
fn init_at(n: usize, which: usize, i: usize, j: usize) -> f64 {
    let tpi = 2.0 * std::f64::consts::PI;
    let di = tpi / n as f64;
    let dj = tpi / n as f64;
    let el = n as f64 * DX;
    let pcf = std::f64::consts::PI * std::f64::consts::PI * A * A / (el * el);
    // Wrap indices onto 1..=n (index 0 mirrors index n).
    let iw = if i == 0 { n } else { i };
    let jw = if j == 0 { n } else { j };
    match which {
        P | POLD => pcf * ((2.0 * i as f64 * di).cos() + (2.0 * j as f64 * dj).cos()) + 50000.0,
        U | UOLD => -(psi(n, iw, jw) - psi(n, iw, jw - 1)) / DY,
        V | VOLD => (psi(n, iw, jw) - psi(n, iw - 1, jw)) / DX,
        _ => 0.0,
    }
}

/// Step 1: compute cu, cv, z, h at `(i, j)` for `i in 1..=n`, `j in jr`
/// from p, u, v at `(i, j)`, `(i-1, j)`, `(i, j-1)`, `(i-1, j-1)`.
/// Inputs must hold columns `jr.start-1 ..= jr.end-1`.
#[allow(clippy::too_many_arguments)]
fn step1<I, O>(
    p: &Slab<I>,
    u: &Slab<I>,
    v: &Slab<I>,
    cu: &mut Slab<O>,
    cv: &mut Slab<O>,
    z: &mut Slab<O>,
    h: &mut Slab<O>,
    n: usize,
    jr: Range<usize>,
) where
    I: Deref<Target = [f64]>,
    O: DerefMut<Target = [f64]>,
{
    let fsdx = 4.0 / DX;
    let fsdy = 4.0 / DY;
    for j in jr {
        for i in 1..=n {
            cu.set(i, j, 0.5 * (p.at(i, j) + p.at(i - 1, j)) * u.at(i, j));
            cv.set(i, j, 0.5 * (p.at(i, j) + p.at(i, j - 1)) * v.at(i, j));
            z.set(
                i,
                j,
                (fsdx * (v.at(i, j) - v.at(i - 1, j)) - fsdy * (u.at(i, j) - u.at(i, j - 1)))
                    / (p.at(i - 1, j - 1) + p.at(i - 1, j) + p.at(i, j) + p.at(i, j - 1)),
            );
            h.set(
                i,
                j,
                p.at(i, j)
                    + 0.25
                        * (u.at(i, j) * u.at(i, j)
                            + u.at(i - 1, j) * u.at(i - 1, j)
                            + v.at(i, j) * v.at(i, j)
                            + v.at(i, j - 1) * v.at(i, j - 1)),
            );
        }
    }
}

/// Step 2: compute unew, vnew, pnew from cu, cv, z, h (ghosted) and
/// uold, vold, pold (own columns).
#[allow(clippy::too_many_arguments)]
fn step2<I, O>(
    cu: &Slab<I>,
    cv: &Slab<I>,
    z: &Slab<I>,
    h: &Slab<I>,
    uold: &Slab<I>,
    vold: &Slab<I>,
    pold: &Slab<I>,
    unew: &mut Slab<O>,
    vnew: &mut Slab<O>,
    pnew: &mut Slab<O>,
    tdt: f64,
    n: usize,
    jr: Range<usize>,
) where
    I: Deref<Target = [f64]>,
    O: DerefMut<Target = [f64]>,
{
    let tdts8 = tdt / 8.0;
    let tdtsdx = tdt / DX;
    let tdtsdy = tdt / DY;
    for j in jr {
        for i in 1..=n {
            unew.set(
                i,
                j,
                uold.at(i, j)
                    + tdts8
                        * (z.at(i, j) + z.at(i, j - 1))
                        * (cv.at(i, j) + cv.at(i - 1, j) + cv.at(i - 1, j - 1) + cv.at(i, j - 1))
                    - tdtsdx * (h.at(i, j) - h.at(i - 1, j)),
            );
            vnew.set(
                i,
                j,
                vold.at(i, j)
                    - tdts8
                        * (z.at(i, j) + z.at(i - 1, j))
                        * (cu.at(i, j) + cu.at(i - 1, j) + cu.at(i - 1, j - 1) + cu.at(i, j - 1))
                    - tdtsdy * (h.at(i, j) - h.at(i, j - 1)),
            );
            pnew.set(
                i,
                j,
                pold.at(i, j)
                    - tdtsdx * (cu.at(i, j) - cu.at(i - 1, j))
                    - tdtsdy * (cv.at(i, j) - cv.at(i, j - 1)),
            );
        }
    }
}

/// Step 3: time smoothing over this partition's columns (no neighbours).
/// Outputs replace uold/vold/pold and u/v/p in place.
#[allow(clippy::too_many_arguments)]
fn step3<I, O>(
    u: &mut Slab<O>,
    v: &mut Slab<O>,
    p: &mut Slab<O>,
    unew: &Slab<I>,
    vnew: &Slab<I>,
    pnew: &Slab<I>,
    uold: &mut Slab<O>,
    vold: &mut Slab<O>,
    pold: &mut Slab<O>,
    first: bool,
    n: usize,
    jr: Range<usize>,
) where
    I: Deref<Target = [f64]>,
    O: DerefMut<Target = [f64]>,
{
    for j in jr {
        for i in 0..=n {
            if first {
                uold.set(i, j, u.at(i, j));
                vold.set(i, j, v.at(i, j));
                pold.set(i, j, p.at(i, j));
            } else {
                uold.set(
                    i,
                    j,
                    u.at(i, j) + ALPHA * (unew.at(i, j) - 2.0 * u.at(i, j) + uold.at(i, j)),
                );
                vold.set(
                    i,
                    j,
                    v.at(i, j) + ALPHA * (vnew.at(i, j) - 2.0 * v.at(i, j) + vold.at(i, j)),
                );
                pold.set(
                    i,
                    j,
                    p.at(i, j) + ALPHA * (pnew.at(i, j) - 2.0 * p.at(i, j) + pold.at(i, j)),
                );
            }
            u.set(i, j, unew.at(i, j));
            v.set(i, j, vnew.at(i, j));
            p.set(i, j, pnew.at(i, j));
        }
    }
}

/// Boundary-row wrap for one slab's own columns: row 0 <- row n.
fn row_wrap<D: DerefMut<Target = [f64]>>(s: &mut Slab<D>, n: usize, jr: Range<usize>) {
    for j in jr {
        let v = s.at(n, j);
        s.set(0, j, v);
    }
}

/// Checksum: sums and probes of the final p and u fields (bit-exact
/// across versions).
fn checksum<D: Deref<Target = [f64]>>(p_full: &Slab<D>, u_full: &Slab<D>, n: usize) -> Vec<f64> {
    vec![
        p_full.data.iter().sum::<f64>(),
        u_full.data.iter().sum::<f64>(),
        p_full.at(n / 2, n / 2),
        u_full.at(1, n - 1),
        p_full.at(n - 1, 2),
    ]
}

// ---------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------

struct FullState {
    arr: Vec<Slab>,
    n: usize,
}

impl FullState {
    fn new(n: usize) -> FullState {
        let np1 = n + 1;
        let mut arr: Vec<Slab> = (0..NARR).map(|_| Slab::new(np1, 0, np1)).collect();
        for which in [U, V, P, UOLD, VOLD, POLD] {
            for j in 0..=n {
                for i in 0..=n {
                    arr[which].set(i, j, init_at(n, which, i, j));
                }
            }
        }
        FullState { arr, n }
    }

    fn iterate(&mut self, node: &Node, first: bool, tdt: f64) {
        let n = self.n;
        let jr = 1..n + 1;
        let a = &mut self.arr;
        {
            let (head, tail) = a.split_at_mut(CU);
            let (cu, rest) = tail.split_first_mut().expect("cu");
            let (cv, rest) = rest.split_first_mut().expect("cv");
            let (z, rest) = rest.split_first_mut().expect("z");
            let h = &mut rest[0];
            step1(&head[P], &head[U], &head[V], cu, cv, z, h, n, jr.clone());
        }
        node.advance((n * n) as f64 * S1_US);
        for w in [CU, CV, Z, H] {
            row_wrap(&mut a[w], n, jr.clone());
            for i in 0..=n {
                let v = a[w].at(i, n);
                a[w].set(i, 0, v);
            }
        }
        {
            // Split for disjoint borrows: new arrays out, the rest in.
            let (left, right) = a.split_at_mut(UOLD);
            let (mids, news) = left.split_at_mut(UNEW);
            let _ = mids;
            let (un, rest) = news.split_first_mut().expect("unew");
            let (vn, rest) = rest.split_first_mut().expect("vnew");
            let pn = &mut rest[0];
            step2(
                &right[CU - UOLD],
                &right[CV - UOLD],
                &right[Z - UOLD],
                &right[H - UOLD],
                &right[0], // UOLD - UOLD: base of the split
                &right[VOLD - UOLD],
                &right[POLD - UOLD],
                un,
                vn,
                pn,
                tdt,
                n,
                jr.clone(),
            );
        }
        node.advance((n * n) as f64 * S2_US);
        for w in [UNEW, VNEW, PNEW] {
            row_wrap(&mut a[w], n, jr.clone());
            for i in 0..=n {
                let v = a[w].at(i, n);
                a[w].set(i, 0, v);
            }
        }
        {
            let (uvp, rest) = a.split_at_mut(UNEW);
            let (news, olds) = rest.split_at_mut(3);
            let (u, r) = uvp.split_first_mut().expect("u");
            let (v, r2) = r.split_first_mut().expect("v");
            let p = &mut r2[0];
            let (uo, r) = olds.split_first_mut().expect("uold");
            let (vo, r2) = r.split_first_mut().expect("vold");
            let po = &mut r2[0];
            step3(
                u,
                v,
                p,
                &news[0],
                &news[1],
                &news[2],
                uo,
                vo,
                po,
                first,
                n,
                0..n + 1,
            );
        }
        node.advance(((n + 1) * (n + 1)) as f64 * S3_US);
    }
}

fn seq_node(node: &Node, p: &Params) -> NodeOut {
    let n = p.n;
    let mut st = FullState::new(n);
    st.iterate(node, true, DT); // warm-up (first step uses dt)
    let tdt = 2.0 * DT;
    let m = meter_start(node);
    for _ in 0..p.iters {
        st.iterate(node, false, tdt);
    }
    NodeOut::plain(
        meter_stop(node, m),
        Some(checksum(&st.arr[P], &st.arr[U], n)),
    )
}

// ---------------------------------------------------------------------
// Shared-memory versions
// ---------------------------------------------------------------------

/// The arrays the initialization writes.
const INIT: [usize; 6] = [U, V, P, UOLD, VOLD, POLD];

struct DsmShallow {
    /// The thirteen arrays, as columns of `n + 1` words.
    arrs: [Cols; NARR],
}

impl DsmShallow {
    fn alloc(tmk: &Tmk, n: usize) -> DsmShallow {
        let np1 = n + 1;
        DsmShallow {
            arrs: std::array::from_fn(|_| Cols::new(tmk.malloc_f64(np1 * np1), np1)),
        }
    }

    /// Arrays `ws` over columns `cols`, in `mode`.
    fn touch<const K: usize>(&self, ws: [usize; K], cols: &Range<usize>, mode: Mode) -> [Touch; K] {
        ws.map(|w| self.arrs[w].touch(cols.clone(), mode))
    }

    // The footprints of the loops over a column block, which their bodies
    // open their views from and their descriptors declare.

    /// Step 1 over `jr`: p, u, v over the ghosted block, read; cu, cv, z,
    /// h written.
    fn step1(&self, jr: &Range<usize>) -> [Touch; 7] {
        let [p, u, v] = self.touch([P, U, V], &(jr.start - 1..jr.end), Read);
        let [cu, cv, z, h] = self.touch([CU, CV, Z, H], jr, Write);
        [p, u, v, cu, cv, z, h]
    }

    /// Step 2 over `jr`: cu, cv, z, h over the ghosted block and the old
    /// values, read; the new values written.
    fn step2(&self, jr: &Range<usize>) -> [Touch; 10] {
        let [cu, cv, z, h] = self.touch([CU, CV, Z, H], &(jr.start - 1..jr.end), Read);
        let [uo, vo, po] = self.touch([UOLD, VOLD, POLD], jr, Read);
        let [un, vn, pn] = self.touch([UNEW, VNEW, PNEW], jr, Write);
        [cu, cv, z, h, uo, vo, po, un, vn, pn]
    }

    /// A row wrap of arrays `ws` over `jr`: updated in place.
    fn wrap<const K: usize>(&self, ws: [usize; K], jr: &Range<usize>) -> [Touch; K] {
        self.touch(ws, jr, Update)
    }

    /// Step 3 over `jr3`: the new values read; the current and the old
    /// values updated in place.
    fn step3(&self, jr3: &Range<usize>) -> [Touch; 9] {
        let [un, vn, pn] = self.touch([UNEW, VNEW, PNEW], jr3, Read);
        let [u, v, p, uo, vo, po] = self.touch([U, V, P, UOLD, VOLD, POLD], jr3, Update);
        [un, vn, pn, u, v, p, uo, vo, po]
    }

    fn init_own(&self, tmk: &Tmk, n: usize, jr: Range<usize>) {
        for (which, t) in INIT.into_iter().zip(self.touch(INIT, &jr, Write)) {
            let mut view = t.write(tmk);
            let mut s = Slab::of(&t, view.slice_mut());
            for j in jr.clone() {
                for i in 0..=n {
                    s.set(i, j, init_at(n, which, i, j));
                }
            }
        }
    }

    /// The sequential column wrap: col 0 <- col n for `arrs` (done by the
    /// processor owning column 0 — the master under SPF).
    ///
    /// The one place that needs two columns of one array: the source
    /// column is copied out and its view dropped before the destination
    /// is opened. Column 0 shares a page with column 1, so opening it
    /// may merge the owner's block extent — and on one node that extent
    /// also holds column `n`, which a source view kept open would pin.
    fn col_wrap(&self, tmk: &Tmk, which: &[usize]) {
        for &w in which {
            let n = self.arrs[w].stride - 1;
            let last = self.arrs[w]
                .touch(n..n + 1, Read)
                .read(tmk)
                .slice()
                .to_vec();
            let mut first = self.arrs[w].touch(0..1, Write).write(tmk);
            first.slice_mut().copy_from_slice(&last);
        }
    }

    /// The checksum of p and u, read whole (the master, after the timed
    /// part).
    fn checksum(&self, tmk: &Tmk, n: usize) -> Vec<f64> {
        let [p, u] = self.touch([P, U], &(0..n + 1), Read);
        let (pf, uf) = (p.read(tmk), u.read(tmk));
        checksum(&Slab::of(&p, pf.slice()), &Slab::of(&u, uf.slice()), n)
    }

    /// What follows a step kernel on each array it wrote: the fused row
    /// wrap, or else a zero in row 0 — the kernels store rows `1..=n`
    /// only, and these loops have always overwritten row 0 (they used to
    /// fill a zeroed private slab and copy all of it back); keeping the
    /// store keeps every diff, and so every simulated byte, as it was.
    fn finish_rows<D: DerefMut<Target = [f64]>>(
        s: &mut Slab<D>,
        n: usize,
        jr: &Range<usize>,
        fuse_wrap: bool,
    ) {
        if fuse_wrap {
            row_wrap(s, n, jr.clone());
        } else {
            for j in jr.clone() {
                s.set(0, j, 0.0);
            }
        }
    }

    /// One step-1 execution over `jr` columns: fault the ghosted inputs
    /// in, run the kernel from their pages into the output pages, and
    /// merge the row wrap if `fuse_wrap`.
    fn do_step1(&self, node: &Node, tmk: &Tmk, n: usize, jr: &Range<usize>, fuse_wrap: bool) {
        if jr.is_empty() {
            return;
        }
        let [p, u, v, cu, cv, z, h] = self.step1(jr);
        let ins = [&p, &u, &v].map(|t| (t, t.read(tmk)));
        node.advance((jr.len() * n) as f64 * S1_US);
        let mut outs = [&cu, &cv, &z, &h].map(|t| (t, t.write(tmk)));
        let [p, u, v] = &ins.each_ref().map(|(t, w)| Slab::of(t, w.slice()));
        let mut out = outs.each_mut().map(|(t, w)| Slab::of(t, w.slice_mut()));
        let [cu, cv, z, h] = &mut out;
        step1(p, u, v, cu, cv, z, h, n, jr.clone());
        for s in &mut out {
            Self::finish_rows(s, n, jr, fuse_wrap);
        }
    }

    /// The row wrap of arrays `ws` over `jr`, updated in place: the loads
    /// fault first (a read view, dropped at once), then the stores.
    fn do_row_wrap<const K: usize>(&self, tmk: &Tmk, n: usize, jr: &Range<usize>, ws: [usize; K]) {
        if jr.is_empty() {
            return;
        }
        for t in self.wrap(ws, jr) {
            drop(t.read(tmk));
            let mut view = t.write(tmk);
            row_wrap(&mut Slab::of(&t, view.slice_mut()), n, jr.clone());
        }
    }

    fn do_step2(
        &self,
        node: &Node,
        tmk: &Tmk,
        n: usize,
        jr: &Range<usize>,
        tdt: f64,
        fuse_wrap: bool,
    ) {
        if jr.is_empty() {
            return;
        }
        let [cu, cv, z, h, uo, vo, po, un, vn, pn] = self.step2(jr);
        let ins = [&cu, &cv, &z, &h, &uo, &vo, &po].map(|t| (t, t.read(tmk)));
        node.advance((jr.len() * n) as f64 * S2_US);
        let mut outs = [&un, &vn, &pn].map(|t| (t, t.write(tmk)));
        let [cu, cv, z, h, uo, vo, po] = &ins.each_ref().map(|(t, w)| Slab::of(t, w.slice()));
        let mut out = outs.each_mut().map(|(t, w)| Slab::of(t, w.slice_mut()));
        let [un, vn, pn] = &mut out;
        step2(cu, cv, z, h, uo, vo, po, un, vn, pn, tdt, n, jr.clone());
        for s in &mut out {
            Self::finish_rows(s, n, jr, fuse_wrap);
        }
    }

    /// Step 3 updates six arrays in place. Its loads fault first, array
    /// by array, then its stores: the read faults of the arrays it also
    /// writes are taken by read views dropped at once, because a write
    /// view may overlap no other open view.
    fn do_step3(&self, node: &Node, tmk: &Tmk, n: usize, jr3: &Range<usize>, first: bool) {
        if jr3.is_empty() {
            return;
        }
        let [un, vn, pn, u, v, p, uo, vo, po] = self.step3(jr3);
        for t in [&u, &v, &p] {
            drop(t.read(tmk));
        }
        let ins = [&un, &vn, &pn].map(|t| (t, t.read(tmk)));
        for t in [&uo, &vo, &po] {
            drop(t.read(tmk));
        }
        node.advance((jr3.len() * (n + 1)) as f64 * S3_US);
        let mut outs = [&u, &v, &p, &uo, &vo, &po].map(|t| (t, t.write(tmk)));
        let [un, vn, pn] = &ins.each_ref().map(|(t, w)| Slab::of(t, w.slice()));
        let [u, v, p, uo, vo, po] = &mut outs.each_mut().map(|(t, w)| Slab::of(t, w.slice_mut()));
        step3(u, v, p, un, vn, pn, uo, vo, po, first, n, jr3.clone());
    }
}

/// Column partitions of `cols` for node `me` of `np`: steps 1-2 over a
/// block; step 3 and the initialization also cover column 0 (assigned to
/// the processor owning column 1).
fn col_parts(me: usize, np: usize, cols: Range<usize>) -> (Range<usize>, Range<usize>) {
    let jr = block_range(me, np, cols);
    let jr3 = if me == 0 && !jr.is_empty() {
        0..jr.end
    } else {
        jr.clone()
    };
    (jr, jr3)
}

fn tmk_node(node: &Node, p: &Params, cfg: &TmkConfig) -> NodeOut {
    let n = p.n;
    let me = node.id();
    let np = node.nprocs();
    let tmk = Tmk::new(node, *cfg);
    let sh = DsmShallow::alloc(&tmk, n);
    let (jr, jr3) = col_parts(me, np, 1..n + 1);
    sh.init_own(&tmk, n, jr3.clone());
    tmk.barrier(0);

    let one = |first: bool, tdt: f64| {
        sh.do_step1(node, &tmk, n, &jr, true);
        tmk.barrier(1);
        if me == 0 {
            sh.col_wrap(&tmk, &[CU, CV, Z, H]);
        }
        sh.do_step2(node, &tmk, n, &jr, tdt, true);
        tmk.barrier(2);
        if me == 0 {
            sh.col_wrap(&tmk, &[UNEW, VNEW, PNEW]);
        }
        sh.do_step3(node, &tmk, n, &jr3, first);
        tmk.barrier(3);
    };
    one(true, DT);
    let m = meter_start(node);
    for _ in 0..p.iters {
        one(false, 2.0 * DT);
    }
    let timed = meter_stop(node, m);
    let cs = (me == 0).then(|| sh.checksum(&tmk, n));
    NodeOut::shared(&tmk, timed, cs)
}

/// SPF-generated version; `fused` selects the §5.2 hand-optimized shape
/// (row wraps merged into the step loops); `cri` attaches the compiler's
/// regular-section descriptors to every parallel loop, so ghost columns,
/// false-shared boundary pages, and the master's column-wrap inputs are
/// pushed by their producers instead of being demand-fetched.
fn spf_node(node: &Node, p: &Params, cfg: &TmkConfig, fused: bool, cri: bool) -> NodeOut {
    let n = p.n;
    let me = node.id();
    let np = node.nprocs();
    let meter = SpfMeter::new(node);
    let tmk = Tmk::new(node, *cfg);
    let sh = DsmShallow::alloc(&tmk, n);
    let spf = Spf::new(&tmk);
    let parts = move |ctl: &LoopCtl| col_parts(me, np, ctl.range.clone());

    let (l_start, l_stop) = meter.register(&spf);
    let l_init = spf.register({
        let (tmk, sh) = (&tmk, &sh);
        move |ctl: &LoopCtl| sh.init_own(tmk, n, parts(ctl).1)
    });
    let l_s1 = spf.register({
        let (tmk, sh) = (&tmk, &sh);
        move |ctl: &LoopCtl| sh.do_step1(node, tmk, n, &parts(ctl).0, fused)
    });
    let l_wrap1 = spf.register({
        let (tmk, sh) = (&tmk, &sh);
        move |ctl: &LoopCtl| sh.do_row_wrap(tmk, n, &parts(ctl).0, [CU, CV, Z, H])
    });
    let l_s2 = spf.register({
        let (tmk, sh) = (&tmk, &sh);
        move |ctl: &LoopCtl| {
            let tdt = f64::from_bits(ctl.args[0]);
            sh.do_step2(node, tmk, n, &parts(ctl).0, tdt, fused);
        }
    });
    let l_wrap2 = spf.register({
        let (tmk, sh) = (&tmk, &sh);
        move |ctl: &LoopCtl| sh.do_row_wrap(tmk, n, &parts(ctl).0, [UNEW, VNEW, PNEW])
    });
    let l_s3 = spf.register({
        let (tmk, sh) = (&tmk, &sh);
        move |ctl: &LoopCtl| sh.do_step3(node, tmk, n, &parts(ctl).1, ctl.args[0] != 0)
    });

    if cri {
        let sh = &sh;
        // The footprints over a node's block, `None` when it is empty.
        let jr3 =
            move |i: &Range<usize>, q, np| share(i, q, np).map(|_| col_parts(q, np, i.clone()).1);
        let init = move |i: &Range<usize>, q, np| Some(sh.touch(INIT, &jr3(i, q, np)?, Write));
        let s1 = move |i: &Range<usize>, q, np| Some(sh.step1(&share(i, q, np)?));
        let wrap1 = move |i: &Range<usize>, q, np| Some(sh.wrap([CU, CV, Z, H], &share(i, q, np)?));
        let s2 = move |i: &Range<usize>, q, np| Some(sh.step2(&share(i, q, np)?));
        let wrap2 =
            move |i: &Range<usize>, q, np| Some(sh.wrap([UNEW, VNEW, PNEW], &share(i, q, np)?));
        let s3 = move |i: &Range<usize>, q, np| Some(sh.step3(&jr3(i, q, np)?));
        // Who reads each array next: u, v, p feed step 1 and the old
        // values step 2; a step's outputs feed its row wrap, and a row
        // wrap's the next step and — column n, on the node that holds
        // it — the master's column wrap.
        let uvp = [U, V, P].map(|w| sh.arrs[w]);
        let state = move |_: &Range<usize>, t: &Touch| {
            let to = if uvp.contains(&t.at) { l_s1 } else { l_s2 };
            vec![Next::Loop(to, 1..n + 1)]
        };
        let to = move |l| move |_: &Range<usize>, _: &Touch| vec![Next::Loop(l, 1..n + 1)];
        let wrapped = move |l| {
            move |_: &Range<usize>, _: &Touch| {
                vec![Next::Loop(l, 1..n + 1), Next::Node(0, n..n + 1)]
            }
        };
        spf.describe(l_init, init, state);
        spf.describe(l_s1, s1, to(l_wrap1));
        spf.describe(l_wrap1, wrap1, wrapped(l_s2));
        spf.describe(l_s2, s2, to(l_wrap2));
        spf.describe(l_wrap2, wrap2, wrapped(l_s3));
        spf.describe(l_s3, s3, state);
    }

    let cs = spf.run(|mr| {
        let whole = 1..n + 1;
        // A step loop and its row wrap are adjacent: one dispatch when
        // their footprints let them share it (SPF+CRI), two otherwise.
        // Hand-opt merged the wrap into the step loop's body.
        let per_step = if fused { 1 } else { 2 };
        mr.par_loop(l_init, whole.clone(), Schedule::Block, &[]);
        let one = |first: bool, tdt: f64| {
            let block = |id, args| LoopCtl::new(id, whole.clone(), Schedule::Block, args);
            mr.par_loops(&[block(l_s1, &[]), block(l_wrap1, &[])][..per_step]);
            // Column wrap is sequential code: the master executes it.
            sh.col_wrap(mr.tmk(), &[CU, CV, Z, H]);
            let tdt = [tdt.to_bits()];
            mr.par_loops(&[block(l_s2, &tdt), block(l_wrap2, &[])][..per_step]);
            sh.col_wrap(mr.tmk(), &[UNEW, VNEW, PNEW]);
            mr.par_loop(l_s3, whole.clone(), Schedule::Block, &[u64::from(first)]);
        };
        one(true, DT);
        mr.par_loop(l_start, 0..0, Schedule::Block, &[]);
        for _ in 0..p.iters {
            one(false, 2.0 * DT);
        }
        mr.par_loop(l_stop, 0..0, Schedule::Block, &[]);
        sh.checksum(mr.tmk(), n)
    });
    NodeOut::shared(&tmk, meter.take(), cs)
}

// ---------------------------------------------------------------------
// Message passing
// ---------------------------------------------------------------------

struct MpShallow {
    /// Local slabs with one ghost column on each side: columns
    /// `jr.start-1 ..= jr.end` (clamped to the array). They live for
    /// the whole run: the kernels compute in place on them, and ghost
    /// columns are packed from and received straight into them.
    slabs: Vec<Slab>,
    jr: Range<usize>,
    jr3: Range<usize>,
    np1: usize,
    /// The processor owning column `n`, the source of the column wrap.
    last_owner: usize,
}

impl MpShallow {
    fn new(n: usize, me: usize, np: usize) -> MpShallow {
        let np1 = n + 1;
        let (jr, jr3) = col_parts(me, np, 1..n + 1);
        let lo = jr3.start.saturating_sub(1);
        let hi = (jr.end + 1).min(np1);
        let mut slabs: Vec<Slab> = (0..NARR).map(|_| Slab::new(np1, lo, hi - lo)).collect();
        for which in [U, V, P, UOLD, VOLD, POLD] {
            for j in jr3.clone() {
                for i in 0..=n {
                    slabs[which].set(i, j, init_at(n, which, i, j));
                }
            }
        }
        let last_owner = (0..np)
            .find(|&q| col_parts(q, np, 1..n + 1).0.contains(&n))
            .unwrap_or(0);
        MpShallow {
            slabs,
            jr,
            jr3,
            np1,
            last_owner,
        }
    }

    /// The message groups of one exchange point: all of `which` in one
    /// message per neighbour (the hand-coded PVMe style), or one message
    /// per array (XHPF).
    fn groups(which: &[usize], aggregate: bool) -> std::slice::Chunks<'_, usize> {
        which.chunks(if aggregate { which.len() } else { 1 })
    }

    /// Pack column `j` of each array in `group` into one message.
    fn send_cols(&self, comm: &Comm, dst: usize, tag: u32, group: &[usize], j: usize) {
        let mut w = WordWriter::with_capacity(group.len() * self.np1);
        for &a in group {
            w.put_f64s(self.slabs[a].col(j));
        }
        comm.send_packed(dst, tag, w);
    }

    /// Unpack such a message into column `j` of each array in `group`.
    fn recv_cols(&mut self, comm: &Comm, src: usize, tag: u32, group: &[usize], j: usize) {
        let payload = comm.recv(src, tag);
        let mut r = WordReader::new(&payload);
        for &a in group {
            r.take_f64s_into(self.slabs[a].col_mut(j));
        }
        debug_assert!(r.is_exhausted());
    }

    /// Exchange ghost columns of `which` arrays with both neighbours.
    fn exchange(&mut self, comm: &Comm, which: &[usize], aggregate: bool) {
        let me = comm.rank();
        let np = comm.size();
        let jr = self.jr.clone();
        for group in Self::groups(which, aggregate) {
            // Send own boundary columns; receive into ghosts.
            let tag = 60 + group[0] as u32;
            if me > 0 && !jr.is_empty() {
                self.send_cols(comm, me - 1, tag, group, jr.start);
            }
            if me + 1 < np && !jr.is_empty() {
                self.send_cols(comm, me + 1, tag + 20, group, jr.end - 1);
            }
            if me + 1 < np && jr.end < self.np1 {
                self.recv_cols(comm, me + 1, tag, group, jr.end);
            }
            if me > 0 {
                self.recv_cols(comm, me - 1, tag + 20, group, jr.start - 1);
            }
        }
    }

    /// Column wrap: the owner of column n sends it to the owner of
    /// column 0 (processor 0).
    fn col_wrap(&mut self, comm: &Comm, which: &[usize], aggregate: bool) {
        let me = comm.rank();
        let n = self.np1 - 1;
        if self.last_owner == 0 {
            if me == 0 {
                for &w in which {
                    self.slabs[w].copy_col_within(n, 0);
                }
            }
            return;
        }
        for group in Self::groups(which, aggregate) {
            let tag = 90 + group[0] as u32;
            if me == self.last_owner {
                self.send_cols(comm, 0, tag, group, n);
            } else if me == 0 {
                self.recv_cols(comm, self.last_owner, tag, group, 0);
            }
        }
    }

    /// The arrays at `which`, borrowed together for one kernel call.
    fn arrays<const K: usize>(&mut self, which: [usize; K]) -> [&mut Slab; K] {
        self.slabs
            .get_disjoint_mut(which)
            .expect("distinct arrays of the thirteen")
    }
}

fn mp_node(node: &Node, p: &Params, xhpf_mode: bool) -> NodeOut {
    let n = p.n;
    let me = node.id();
    let np = node.nprocs();
    let comm = Comm::new(node);
    let x = Xhpf::new(&comm);
    let mut st = MpShallow::new(n, me, np);
    let aggregate = !xhpf_mode;
    let (jr, jr3) = (st.jr.clone(), st.jr3.clone());

    let one = |st: &mut MpShallow, first: bool, tdt: f64| {
        st.exchange(&comm, &[P, U, V], aggregate);
        if !jr.is_empty() {
            let [pp, u, v, cu, cv, z, h] = st.arrays([P, U, V, CU, CV, Z, H]);
            step1(pp, u, v, cu, cv, z, h, n, jr.clone());
            node.advance((jr.len() * n) as f64 * S1_US);
            for s in [cu, cv, z, h] {
                row_wrap(s, n, jr.clone());
            }
        }
        if xhpf_mode {
            x.loop_sync();
        }
        st.col_wrap(&comm, &[CU, CV, Z, H], aggregate);
        st.exchange(&comm, &[CU, CV, Z, H], aggregate);
        if !jr.is_empty() {
            let [cu, cv, z, h, uo, vo, po, un, vn, pn] =
                st.arrays([CU, CV, Z, H, UOLD, VOLD, POLD, UNEW, VNEW, PNEW]);
            step2(cu, cv, z, h, uo, vo, po, un, vn, pn, tdt, n, jr.clone());
            node.advance((jr.len() * n) as f64 * S2_US);
            for s in [un, vn, pn] {
                row_wrap(s, n, jr.clone());
            }
        }
        if xhpf_mode {
            x.loop_sync();
        }
        st.col_wrap(&comm, &[UNEW, VNEW, PNEW], aggregate);
        if !jr3.is_empty() {
            let [u, v, pp, un, vn, pn, uo, vo, po] =
                st.arrays([U, V, P, UNEW, VNEW, PNEW, UOLD, VOLD, POLD]);
            step3(u, v, pp, un, vn, pn, uo, vo, po, first, n, jr3.clone());
            node.advance((jr3.len() * (n + 1)) as f64 * S3_US);
        }
        if xhpf_mode {
            x.loop_sync();
        }
    };

    one(&mut st, true, DT);
    let m = meter_start(node);
    for _ in 0..p.iters {
        one(&mut st, false, 2.0 * DT);
    }
    let timed = meter_stop(node, m);

    // Gather p and u for validation (untimed).
    let flat = [
        st.slabs[P].col_block(jr3.clone()),
        st.slabs[U].col_block(jr3.clone()),
    ]
    .concat();
    let gathered = comm.gather_f64s(0, &flat);
    let cs = gathered.map(|parts| {
        let np1 = n + 1;
        let mut pf = Slab::new(np1, 0, np1);
        let mut uf = Slab::new(np1, 0, np1);
        for (q, part) in parts.iter().enumerate() {
            let (_, jr3) = col_parts(q, np, 1..n + 1);
            let (p_cols, u_cols) = part.split_at(part.len() / 2);
            pf.col_block_mut(jr3.clone()).copy_from_slice(p_cols);
            uf.col_block_mut(jr3).copy_from_slice(u_cols);
        }
        checksum(&pf, &uf, n)
    });
    NodeOut::plain(timed, cs)
}

/// One node of Shallow in `version`.
pub fn node(node: &Node, version: Version, p: &Params, cfg: &TmkConfig) -> NodeOut {
    match version {
        Version::Seq => seq_node(node, p),
        Version::Tmk => tmk_node(node, p, cfg),
        Version::Spf => spf_node(node, p, cfg, false, false),
        Version::SpfCri => spf_node(node, p, cfg, false, true),
        Version::HandOpt => spf_node(node, p, cfg, true, false),
        Version::Xhpf => mp_node(node, p, true),
        Version::Pvme => mp_node(node, p, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{AppId, RunResult, RunSpec};

    const SCALE: f64 = 0.03; // 30x30 grid, 3 iterations

    fn run(version: Version, nprocs: usize) -> RunResult {
        RunSpec::new(AppId::Shallow, version, nprocs, SCALE).run()
    }

    #[test]
    fn all_versions_match_sequential_bitwise() {
        let seq = run(Version::Seq, 1);
        assert!(seq.checksum[0].is_finite());
        for v in [
            Version::Tmk,
            Version::Spf,
            Version::Xhpf,
            Version::Pvme,
            Version::HandOpt,
        ] {
            let r = run(v, 4);
            assert_eq!(r.checksum, seq.checksum, "version {v:?}");
        }
    }

    #[test]
    fn cri_matches_sequential_bitwise_and_cuts_messages() {
        let seq = run(Version::Seq, 1);
        let spf = run(Version::Spf, 4);
        let cri = run(Version::SpfCri, 4);
        assert_eq!(cri.checksum, seq.checksum);
        assert_eq!(cri.checksum, spf.checksum);
        assert!(
            cri.messages < spf.messages,
            "cri {} vs spf {}",
            cri.messages,
            spf.messages
        );
        assert!(cri.dsm.pages_pushed > 0);
    }

    #[test]
    fn pvme_aggregation_beats_xhpf_messages() {
        let pvme = run(Version::Pvme, 4);
        let xhpf = run(Version::Xhpf, 4);
        assert!(pvme.messages < xhpf.messages);
    }

    #[test]
    fn fused_handopt_reduces_sync_vs_spf() {
        let spf = run(Version::Spf, 4);
        let opt = run(Version::HandOpt, 4);
        assert!(opt.dsm.forks < spf.dsm.forks);
        assert!(opt.time_us < spf.time_us);
    }
}
