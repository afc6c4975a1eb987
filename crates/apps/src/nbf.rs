//! NBF: the non-bonded force kernel of a molecular-dynamics simulation
//! (paper §6.2).
//!
//! Each molecule has a list of "partners" (established at run time) close
//! enough to exert a non-negligible force. Every iteration walks each
//! molecule's partner list and updates the forces on *both* molecules,
//! then integrates the coordinates. Molecules are block-partitioned;
//! because forces are updated symmetrically, each processor accumulates
//! into a private buffer covering its block plus a window on each side,
//! and the buffers are combined after the force loop.
//!
//! Version-specific behaviour reproduced here:
//!
//! * **SPF / TreadMarks**: coordinates, forces and the per-processor
//!   contribution buffers live in shared memory; after the loop each
//!   processor sums the overlapping buffer regions into its force block.
//!   Only the pages actually written remotely move — "typically only a
//!   small subsection of the array" (the paper's 5.31/5.86 speedups);
//! * **XHPF**: the compiler cannot analyze the indirection; every
//!   processor broadcasts its whole contribution buffer and its
//!   coordinate partition every iteration (163 MB in the paper, 3.85);
//! * **PVMe (hand)**: neighbours exchange just the overlapping
//!   contribution windows and boundary coordinate windows, in single
//!   aggregated messages.

use std::ops::{DerefMut, Range};
use std::rc::Rc;

use cri::{Access, Section};
use inspector::Inspector;
use mpl::Comm;
use sp2sim::{Node, SplitMix64, WordReader, WordWriter};
use spf::Mode::{self, Read, Update, Write};
use spf::{block_range, Cols, LoopCtl, Next, Schedule, Spf, Touch};
use treadmarks::{SharedArray, Tmk, TmkConfig};
use xhpf::Xhpf;

use crate::common::{hash01, meter_start, meter_stop, share, SpfMeter};
use crate::runner::{NodeOut, Version};

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Number of molecules (paper: 32768).
    pub m: usize,
    /// Timed iterations (paper: 20).
    pub iters: usize,
    /// Partners per molecule.
    pub k: usize,
    /// Partner window: partners of `i` lie within `i ± w`.
    pub w: usize,
}

/// Paper-sized workload at `scale = 1.0`.
pub fn params(scale: f64) -> Params {
    if scale >= 1.0 {
        Params {
            m: 32768,
            iters: 20,
            k: 60,
            w: 2000,
        }
    } else {
        let m = ((32768.0 * scale) as usize).max(256);
        Params {
            m,
            iters: ((20.0 * scale).round() as usize).max(3),
            k: 12,
            // Keep the paper's window/size ratio (2000/32768 ~ 1/16).
            w: (m / 16).max(16),
        }
    }
}

/// Virtual cost per pairwise interaction (distance + force + two
/// accumulations), calibrated against Table 1's 63.9 s.
const PAIR_US: f64 = 1.6;
/// Virtual cost per molecule of the buffer-merge phase, per buffer read.
const MERGE_US: f64 = 0.02;
/// Virtual cost per molecule of the coordinate update.
const UPD_US: f64 = 0.05;
/// Integration step.
const DT: f64 = 1e-3;
/// Force constant.
const FK: f64 = 1e-2;

/// Run-time-established partner lists: `k` distinct partners of `i`
/// within `i ± w` (deterministic, identical in every version).
fn build_partners(p: &Params) -> Vec<u32> {
    let mut out = Vec::with_capacity(p.m * p.k);
    for i in 0..p.m {
        let mut rng = SplitMix64::new(0xBEEF ^ i as u64);
        let lo = i.saturating_sub(p.w) as i64;
        let hi = ((i + p.w).min(p.m - 1) + 1) as i64;
        for _ in 0..p.k {
            let mut j = rng.range(lo, hi);
            if j == i as i64 {
                j = if j + 1 < hi { j + 1 } else { lo };
            }
            out.push(j as u32);
        }
    }
    out
}

/// The partner lists of a cluster run: a pure function of the
/// parameters that every node building them would reach alike, so the
/// host builds them once and hands every node the same ones.
struct Partners(Vec<u32>);

fn replicated_partners(node: &Node, p: &Params) -> Rc<Partners> {
    node.cluster_slot(|| Partners(build_partners(p)))
}

/// Initial coordinate of molecule `i` on `axis`: a jittered lattice.
fn coord(axis: usize, i: usize) -> f64 {
    i as f64 * 0.7 + hash01(0xC0FFEE + axis as u64, i as u64)
}

/// Every molecule's initial coordinates.
fn init_coords(m: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    (
        (0..m).map(|i| coord(0, i)).collect(),
        (0..m).map(|i| coord(1, i)).collect(),
        (0..m).map(|i| coord(2, i)).collect(),
    )
}

/// The force kernel for molecules `range`, accumulating symmetric
/// contributions into buffers covering `buf_lo ..`. Coordinates must
/// cover `range ± w` (passed as full slices here; distributed versions
/// materialize the window they need).
#[allow(clippy::too_many_arguments)]
fn force_kernel<B: DerefMut<Target = [f64]>>(
    range: Range<usize>,
    partners: &[u32],
    k: usize,
    x: &[f64],
    y: &[f64],
    z: &[f64],
    coord_lo: usize,
    buf: &mut [B; 3],
    buf_lo: usize,
) {
    for i in range {
        let (xi, yi, zi) = (x[i - coord_lo], y[i - coord_lo], z[i - coord_lo]);
        for &pj in &partners[i * k..(i + 1) * k] {
            let j = pj as usize;
            let (dx, dy, dz) = (
                xi - x[j - coord_lo],
                yi - y[j - coord_lo],
                zi - z[j - coord_lo],
            );
            let r2 = dx * dx + dy * dy + dz * dz + 1.0;
            let g = FK / r2;
            buf[0][i - buf_lo] += g * dx;
            buf[1][i - buf_lo] += g * dy;
            buf[2][i - buf_lo] += g * dz;
            buf[0][j - buf_lo] -= g * dx;
            buf[1][j - buf_lo] -= g * dy;
            buf[2][j - buf_lo] -= g * dz;
        }
    }
}

/// Coordinate update for `range` given the net forces on those molecules.
fn update_kernel(
    range: Range<usize>,
    f: &[Vec<f64>; 3],
    f_lo: usize,
    x: &mut [f64],
    y: &mut [f64],
    z: &mut [f64],
    coord_lo: usize,
) {
    for i in range {
        x[i - coord_lo] += DT * f[0][i - f_lo];
        y[i - coord_lo] += DT * f[1][i - f_lo];
        z[i - coord_lo] += DT * f[2][i - f_lo];
    }
}

/// Buffer span a processor owning `block` accumulates into.
fn buf_span(block: &Range<usize>, w: usize, m: usize) -> Range<usize> {
    block.start.saturating_sub(w)..(block.end + w).min(m)
}

/// Checksum: coordinate sums plus probes (merge order varies across
/// versions, so comparisons are tolerance-based).
fn checksum(x: &[f64], y: &[f64], z: &[f64]) -> Vec<f64> {
    let m = x.len();
    vec![
        x.iter().sum::<f64>(),
        y.iter().sum::<f64>(),
        z.iter().sum::<f64>(),
        x[m / 2],
        z[m - 1],
    ]
}

fn charge_force(node: &Node, mols: usize, k: usize) {
    node.advance(mols as f64 * k as f64 * PAIR_US);
}

// ---------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------

fn seq_node(node: &Node, p: &Params) -> NodeOut {
    let partners = build_partners(p);
    let (mut x, mut y, mut z) = init_coords(p.m);
    let m = meter_start(node);
    for _ in 0..p.iters {
        let mut buf = [vec![0.0; p.m], vec![0.0; p.m], vec![0.0; p.m]];
        force_kernel(0..p.m, &partners, p.k, &x, &y, &z, 0, &mut buf, 0);
        charge_force(node, p.m, p.k);
        update_kernel(0..p.m, &buf, 0, &mut x, &mut y, &mut z, 0);
        node.advance(p.m as f64 * (UPD_US + MERGE_US));
    }
    NodeOut::plain(meter_stop(node, m), Some(checksum(&x, &y, &z)))
}

// ---------------------------------------------------------------------
// Shared memory (hand-coded TreadMarks and SPF shapes share plumbing)
// ---------------------------------------------------------------------

struct SharedNbf {
    coords: [SharedArray; 3],
    /// Per-processor contribution buffers, one full-length array each.
    bufs: Vec<[SharedArray; 3]>,
}

impl SharedNbf {
    fn alloc(tmk: &Tmk, m: usize, np: usize) -> SharedNbf {
        SharedNbf {
            coords: [tmk.malloc_f64(m), tmk.malloc_f64(m), tmk.malloc_f64(m)],
            bufs: (0..np)
                .map(|_| [tmk.malloc_f64(m), tmk.malloc_f64(m), tmk.malloc_f64(m)])
                .collect(),
        }
    }
}

/// One shared-memory iteration body, common to the hand-coded and SPF
/// versions (they differ in synchronization placement, which the callers
/// provide around the three phases).
struct DsmIter<'a> {
    p: &'a Params,
    partners: &'a [u32],
    block: Range<usize>,
    span: Range<usize>,
}

impl DsmIter<'_> {
    fn new<'a>(p: &'a Params, partners: &'a [u32], me: usize, np: usize) -> DsmIter<'a> {
        let block = block_range(me, np, 0..p.m);
        let span = buf_span(&block, p.w, p.m);
        DsmIter {
            p,
            partners,
            block,
            span,
        }
    }

    /// Phase 1: force computation into this processor's shared buffer.
    fn force(&self, node: &Node, tmk: &Tmk, sh: &SharedNbf, me: usize) {
        if self.block.is_empty() {
            return;
        }
        let span = self.span.clone();
        let [x, y, z] = [0, 1, 2].map(|d| tmk.read(sh.coords[d], span.clone()));
        charge_force(node, self.block.len(), self.p.k);
        // The forces accumulate straight into this processor's shared
        // buffers, cleared first (each iteration's contributions start
        // from zero).
        let mut views = [0, 1, 2].map(|d| tmk.write(sh.bufs[me][d], span.clone()));
        let mut buf = views.each_mut().map(|w| w.slice_mut());
        for bd in &mut buf {
            bd.fill(0.0);
        }
        force_kernel(
            self.block.clone(),
            self.partners,
            self.p.k,
            x.slice(),
            y.slice(),
            z.slice(),
            span.start,
            &mut buf,
            span.start,
        );
    }

    /// This block's overlap with the buffer span of each processor whose
    /// span meets it, ascending.
    fn overlaps(&self, np: usize) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        (0..np).filter_map(move |q| {
            let qspan = buf_span(&block_range(q, np, 0..self.p.m), self.p.w, self.p.m);
            let r = self.block.start.max(qspan.start)..self.block.end.min(qspan.end);
            (!r.is_empty()).then_some((q, r))
        })
    }

    /// Phase 3, after a merge of `reads` buffers (charged here): integrate
    /// this block's coordinates with the merged force `f(d, i)` of
    /// dimension `d` on molecule `i`.
    fn integrate(
        &self,
        node: &Node,
        tmk: &Tmk,
        sh: &SharedNbf,
        reads: usize,
        f: impl Fn(usize, usize) -> f64,
    ) {
        let b = self.block.clone();
        node.advance(b.len() as f64 * reads as f64 * MERGE_US);
        let [mut x, mut y, mut z] = coord_block(sh, &b, Update).map(|t| t.write(tmk));
        for i in b.clone() {
            x[i] += DT * f(0, i);
            y[i] += DT * f(1, i);
            z[i] += DT * f(2, i);
        }
        node.advance(b.len() as f64 * UPD_US);
    }

    /// Phase 2+3: merge every overlapping processor's buffer over this
    /// block, then integrate the coordinates.
    fn merge_update(&self, node: &Node, tmk: &Tmk, sh: &SharedNbf, np: usize) {
        if self.block.is_empty() {
            return;
        }
        let b = self.block.clone();
        let mut f = [vec![0.0; b.len()], vec![0.0; b.len()], vec![0.0; b.len()]];
        let mut reads = 0;
        for (q, r) in self.overlaps(np) {
            reads += 1;
            for (d, fd) in f.iter_mut().enumerate() {
                let part = tmk.read(sh.bufs[q][d], r.clone());
                for i in r.clone() {
                    fd[i - b.start] += part[i];
                }
            }
        }
        self.integrate(node, tmk, sh, reads, |d, i| f[d][i - b.start]);
    }

    /// Phase 2+3 with the buffer merge routed through the windowed
    /// ordered reduction: identical numerics to
    /// [`DsmIter::merge_update`] (the reduction folds contributions in
    /// the same ascending node order), with the peer-buffer page fetches
    /// replaced by one message per overlapping pair of neighbours. Every
    /// node takes part in the collective — an empty block contributes an
    /// empty window, exactly the unhinted early return.
    fn merge_reduced(&self, node: &Node, tmk: &Tmk, sh: &SharedNbf, me: usize, np: usize) {
        let (b, span, p) = (self.block.clone(), self.span.clone(), self.p);
        // One collective for all three dimensions: the conceptual reduced
        // vector is the xyz-interleaved force array, so every window and
        // every block stays a single contiguous range. Per-component
        // addition sequences are those of the unhinted per-buffer fold —
        // bitwise identical. The window is packed from the three buffer
        // views straight into its messages; the iterator owns them, so
        // they close once it is drained, before the collective waits.
        let layout = |q: usize| {
            let block = block_range(q, np, 0..p.m);
            let span = match block.is_empty() {
                true => 0..0,
                false => buf_span(&block, p.w, p.m),
            };
            (span.start * 3..span.end * 3, block.start * 3..block.end * 3)
        };
        let bufs =
            (!b.is_empty()).then(|| [0, 1, 2].map(|d| tmk.read(sh.bufs[me][d], span.clone())));
        let window = (0..layout(me).0.len()).map(move |j| {
            let bufs = bufs.as_ref().expect("a non-empty window has views");
            bufs[j % 3].slice()[j / 3]
        });
        let folded = tmk.reduce_windows(3 * p.m, window, layout);
        if b.is_empty() {
            return;
        }
        // Same virtual merge cost as the unhinted per-buffer fold: the
        // summation work exists wherever it runs.
        let reads = self.overlaps(np).count();
        self.integrate(node, tmk, sh, reads, |d, i| folded[3 * (i - b.start) + d]);
    }

    /// Write this processor's block of the initial coordinates.
    fn init(&self, tmk: &Tmk, sh: &SharedNbf) {
        if self.block.is_empty() {
            return;
        }
        for (axis, t) in coord_block(sh, &self.block, Write).iter().enumerate() {
            let mut w = t.write(tmk);
            for (v, i) in w.slice_mut().iter_mut().zip(t.cols.clone()) {
                *v = coord(axis, i);
            }
        }
    }
}

/// What a block of molecules is in the coordinates: the init phase
/// writes it (`Write`) and the merge phase updates it (`Update`: `x[i] +=
/// …`); the force phase reads it next.
fn coord_block(sh: &SharedNbf, block: &Range<usize>, mode: Mode) -> [Touch; 3] {
    sh.coords
        .map(|c| Cols::new(c, 1).touch(block.clone(), mode))
}

fn dsm_checksum(tmk: &Tmk, sh: &SharedNbf, m: usize) -> Vec<f64> {
    let [x, y, z] = [0, 1, 2].map(|d| tmk.read(sh.coords[d], 0..m));
    checksum(x.slice(), y.slice(), z.slice())
}

fn tmk_node(node: &Node, p: &Params, cfg: &TmkConfig) -> NodeOut {
    let me = node.id();
    let np = node.nprocs();
    let tmk = Tmk::new(node, *cfg);
    let sh = SharedNbf::alloc(&tmk, p.m, np);
    let partners = replicated_partners(node, p);
    // Each processor initializes its own coordinate block.
    let it = DsmIter::new(p, &partners.0, me, np);
    it.init(&tmk, &sh);
    tmk.barrier(0);
    let m = meter_start(node);
    for _ in 0..p.iters {
        it.force(node, &tmk, &sh, me);
        tmk.barrier(1);
        it.merge_update(node, &tmk, &sh, np);
        tmk.barrier(2);
    }
    let timed = meter_stop(node, m);
    let cs = (me == 0).then(|| dsm_checksum(&tmk, &sh, p.m));
    NodeOut::shared(&tmk, timed, cs)
}

/// The SPF version. With `cri`, the inspector/executor repair for the
/// interaction lists:
///
/// * the **force loop** carries an inspector that walks each molecule's
///   partner list once and materializes the coordinate words it will
///   read as a dynamic section — validated up front, and the target of
///   the coordinate-update pushes;
/// * the **merge phase**'s symmetric-contribution summation — an
///   interaction-list reduction — is a *windowed ordered* reduction
///   ([`Tmk::reduce_windows`]): each processor sends every neighbour
///   the part of its buffer window that falls in the neighbour's
///   block, straight to it, and folds its own block in ascending node
///   order (bitwise the unhinted merge loop's addition sequence); one
///   message per overlapping pair of processors replaces one demand
///   diff exchange per overlapping `(reader, writer, page)` triple.
fn spf_node(node: &Node, p: &Params, cfg: &TmkConfig, cri: bool) -> NodeOut {
    let me = node.id();
    let np = node.nprocs();
    let m = p.m;
    let meter = SpfMeter::new(node);
    let insp = Inspector::new(node);
    let tmk = Tmk::new(node, *cfg);
    let sh = SharedNbf::alloc(&tmk, p.m, np);
    let partners = replicated_partners(node, p);
    let it = DsmIter::new(p, &partners.0, me, np);
    let spf = Spf::new(&tmk);

    let (l_start, l_stop) = meter.register(&spf);
    let l_init = spf.register({
        let (tmk, sh, it) = (&tmk, &sh, &it);
        move |_ctl: &LoopCtl| it.init(tmk, sh)
    });
    let l_force = spf.register({
        let (tmk, sh, it) = (&tmk, &sh, &it);
        move |_ctl: &LoopCtl| it.force(node, tmk, sh, me)
    });
    let l_merge = spf.register({
        let (tmk, sh, it) = (&tmk, &sh, &it);
        move |_ctl: &LoopCtl| match cri {
            true => it.merge_reduced(node, tmk, sh, me, np),
            false => it.merge_update(node, tmk, sh, np),
        }
    });

    // Descriptors. The force loop's coordinate reads go through the
    // partner lists — the inspector walks them per evaluated node and
    // compacts the touched words; buffer writes are regular spans. The
    // init and merge loops write coordinate blocks read next by the
    // force loop (through its dynamic descriptor).
    if cri {
        let sh = &sh;
        let coords = move |mode| {
            move |iters: &Range<usize>, q: usize, nprocs: usize| {
                Some(coord_block(sh, &share(iters, q, nprocs)?, mode))
            }
        };
        // The merge also reads the node's own force buffer over its span.
        let merge = move |iters: &Range<usize>, q: usize, nprocs: usize| {
            let block = share(iters, q, nprocs)?;
            let span = buf_span(&block, p.w, p.m);
            let bufs = sh.bufs[q].map(|b| Cols::new(b, 1).touch(span.clone(), Read));
            Some(coord_block(sh, &block, Update).into_iter().chain(bufs))
        };
        let to_force = move |_: &Range<usize>, _: &Touch| [Next::Loop(l_force, 0..m)];
        spf.describe(l_init, coords(Write), to_force);
        spf.describe(l_merge, merge, to_force);
        spf.describe_inspector(l_force, {
            let (partners, insp) = (&partners.0, &insp);
            let k = p.k;
            move |iters: &Range<usize>, q: usize, nprocs: usize| {
                let block = block_range(q, nprocs, iters.clone());
                if block.is_empty() {
                    return vec![];
                }
                let span = buf_span(&block, p.w, p.m);
                let touched = insp.gather(block.clone().flat_map(|i| {
                    std::iter::once(i)
                        .chain(partners[i * k..(i + 1) * k].iter().map(|&j| j as usize))
                }));
                let mut acc: Vec<Access> = (0..3)
                    .map(|d| Access::read(sh.coords[d], touched.clone()))
                    .collect();
                acc.extend(
                    (0..3).map(|d| Access::write(sh.bufs[q][d], Section::range(span.clone()))),
                );
                acc
            }
        });
    }

    let cs = spf.run(|mr| {
        mr.par_loop(l_init, 0..p.m, Schedule::Block, &[]);
        mr.par_loop(l_start, 0..0, Schedule::Block, &[]);
        // The force loop's descriptor is an inspector's: never fused.
        let all = |id| LoopCtl::new(id, 0..p.m, Schedule::Block, &[]);
        let step = [all(l_force), all(l_merge)];
        for _ in 0..p.iters {
            mr.par_loops(&step);
        }
        mr.par_loop(l_stop, 0..0, Schedule::Block, &[]);
        dsm_checksum(mr.tmk(), &sh, p.m)
    });
    meter.finish(&tmk, cs)
}

// ---------------------------------------------------------------------
// Message passing
// ---------------------------------------------------------------------

fn mp_node(node: &Node, p: &Params, xhpf_mode: bool) -> NodeOut {
    let me = node.id();
    let np = node.nprocs();
    let comm = Comm::new(node);
    let x = Xhpf::new(&comm);
    let partners = replicated_partners(node, p);
    let block = block_range(me, np, 0..p.m);
    let span = buf_span(&block, p.w, p.m);
    // Coordinates: kept for the span we read (hand) or fully replicated
    // via the per-iteration broadcasts (XHPF).
    let (mut cx, mut cy, mut cz) = init_coords(p.m);

    // Scratch that lives across iterations: the contribution buffer (the
    // three dimensions back to back, the layout it travels in), the net
    // forces on our block, and under XHPF everyone's broadcast buffers
    // plus the staging of our coordinate partition.
    let mut buf = vec![0.0; 3 * span.len()];
    let mut f = [(); 3].map(|()| vec![0.0; block.len()]);
    let mut all: Vec<Vec<f64>> = vec![Vec::new(); np];
    let mut coords = Vec::new();
    // Overlap of `a` and `b`, if any.
    let overlap = |a: &Range<usize>, b: &Range<usize>| {
        let (lo, hi) = (a.start.max(b.start), a.end.min(b.end));
        (lo < hi).then_some(lo..hi)
    };
    let peers = || (0..np).filter(move |&q| q != me);
    let block_of = |q: usize| block_range(q, np, 0..p.m);
    let span_of = |q: usize| buf_span(&block_of(q), p.w, p.m);

    let m = meter_start(node);
    for _ in 0..p.iters {
        buf.fill(0.0);
        if !block.is_empty() {
            let (bx, byz) = buf.split_at_mut(span.len());
            let (by, bz) = byz.split_at_mut(span.len());
            force_kernel(
                block.clone(),
                &partners.0,
                p.k,
                &cx[span.clone()],
                &cy[span.clone()],
                &cz[span.clone()],
                span.start,
                &mut [bx, by, bz],
                span.start,
            );
            charge_force(node, block.len(), p.k);
        }
        f.iter_mut().for_each(|fd| fd.fill(0.0));
        if xhpf_mode {
            // XHPF: broadcast the whole contribution buffer (all three
            // dimensions concatenated) and the coordinate partition.
            x.broadcast_buffers(&buf, &mut all);
            let mut reads = 0;
            for (q, qbuf) in all.iter().enumerate() {
                let qspan = span_of(q);
                let Some(mine) = overlap(&block, &qspan) else {
                    continue;
                };
                reads += 1;
                for (fd, qd) in f.iter_mut().zip(qbuf.chunks_exact(qspan.len())) {
                    for i in mine.clone() {
                        fd[i - block.start] += qd[i - qspan.start];
                    }
                }
            }
            node.advance(block.len() as f64 * reads as f64 * MERGE_US);
            update_kernel(block.clone(), &f, block.start, &mut cx, &mut cy, &mut cz, 0);
            node.advance(block.len() as f64 * UPD_US);
            // Broadcast updated coordinates of all our molecules.
            coords.clear();
            for c in [&cx, &cy, &cz] {
                coords.extend_from_slice(&c[block.clone()]);
            }
            x.broadcast_buffers(&coords, &mut all);
            for (q, qall) in all.iter().enumerate() {
                let qb = block_of(q);
                if qb.is_empty() {
                    continue;
                }
                for (c, part) in [&mut cx, &mut cy, &mut cz]
                    .into_iter()
                    .zip(qall.chunks_exact(qb.len()))
                {
                    c[qb.clone()].copy_from_slice(part);
                }
            }
            x.loop_sync();
        } else {
            // Hand-coded PVMe: exchange only the overlapping windows, in
            // one aggregated message per neighbour per direction: the
            // window's bounds, then its three dimensions packed straight
            // from the arrays.
            const TAG_C: u32 = 31;
            const TAG_X: u32 = 32;
            let send_window = |q: usize, tag: u32, win: Range<usize>, dims: [&[f64]; 3]| {
                let mut w = WordWriter::with_capacity(2 + 3 * win.len());
                w.put_f64(win.start as f64).put_f64(win.end as f64);
                for d in dims {
                    w.put_f64s(d);
                }
                comm.send_packed(q, tag, w);
            };
            let mut reads = 1;
            // Contributions we computed for other processors' blocks.
            for q in peers() {
                if let Some(win) = overlap(&block_of(q), &span) {
                    let local = win.start - span.start..win.end - span.start;
                    let dim = |d: usize| &buf[d * span.len()..][local.clone()];
                    send_window(q, TAG_C, win, [dim(0), dim(1), dim(2)]);
                }
            }
            // Our own contributions to our block.
            for (fd, bd) in f.iter_mut().zip(buf.chunks_exact(span.len().max(1))) {
                for i in block.clone() {
                    fd[i - block.start] += bd[i - span.start];
                }
            }
            // Receive whatever others computed for us, accumulating
            // straight from the payload.
            for q in peers() {
                if overlap(&block, &span_of(q)).is_none() {
                    continue;
                }
                reads += 1;
                let payload = comm.recv(q, TAG_C);
                let mut r = WordReader::new(&payload);
                let (glo, ghi) = (r.get_f64() as usize, r.get_f64() as usize);
                for fd in f.iter_mut() {
                    let part = r.take(ghi - glo);
                    for i in glo.max(block.start)..ghi.min(block.end) {
                        fd[i - block.start] += f64::from_bits(part[i - glo]);
                    }
                }
            }
            node.advance(block.len() as f64 * reads as f64 * MERGE_US);
            update_kernel(block.clone(), &f, block.start, &mut cx, &mut cy, &mut cz, 0);
            node.advance(block.len() as f64 * UPD_US);
            // Exchange boundary coordinate windows with the processors
            // whose force loops read them (the inverse overlap relation).
            for q in peers() {
                if let Some(win) = overlap(&block, &span_of(q)) {
                    let dims = [&cx[win.clone()], &cy[win.clone()], &cz[win.clone()]];
                    send_window(q, TAG_X, win, dims);
                }
            }
            for q in peers() {
                if overlap(&block_of(q), &span).is_none() {
                    continue;
                }
                let payload = comm.recv(q, TAG_X);
                let mut r = WordReader::new(&payload);
                let win = r.get_f64() as usize..r.get_f64() as usize;
                for c in [&mut cx, &mut cy, &mut cz] {
                    r.take_f64s_into(&mut c[win.clone()]);
                }
            }
        }
    }
    let timed = meter_stop(node, m);

    // Gather coordinates for validation (untimed).
    let mine = [&cx[block.clone()], &cy[block.clone()], &cz[block.clone()]].concat();
    let gathered = comm.gather_f64s(0, &mine);
    let cs = gathered.map(|parts| {
        let (mut gx, mut gy, mut gz) = (vec![0.0; p.m], vec![0.0; p.m], vec![0.0; p.m]);
        for (q, part) in parts.iter().enumerate() {
            let qb = block_range(q, np, 0..p.m);
            gx[qb.clone()].copy_from_slice(&part[0..qb.len()]);
            gy[qb.clone()].copy_from_slice(&part[qb.len()..2 * qb.len()]);
            gz[qb.clone()].copy_from_slice(&part[2 * qb.len()..3 * qb.len()]);
        }
        checksum(&gx, &gy, &gz)
    });
    NodeOut::plain(timed, cs)
}

/// One node of NBF in `version`.
pub fn node(node: &Node, version: Version, p: &Params, cfg: &TmkConfig) -> NodeOut {
    match version {
        Version::Seq => seq_node(node, p),
        Version::Tmk | Version::HandOpt => tmk_node(node, p, cfg),
        // Irregular interaction lists: no regular-section descriptors.
        // Plain SPF runs unhinted; SPF+CRI walks the partner lists with
        // an inspector and routes the force merge through the windowed
        // ordered reduction.
        Version::Spf => spf_node(node, p, cfg, false),
        Version::SpfCri => spf_node(node, p, cfg, true),
        Version::Xhpf => mp_node(node, p, true),
        Version::Pvme => mp_node(node, p, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::checksums_close;
    use crate::runner::{AppId, RunResult, RunSpec};

    const SCALE: f64 = 0.02; // 655 molecules, 3 iterations

    fn run(version: Version, nprocs: usize) -> RunResult {
        RunSpec::new(AppId::Nbf, version, nprocs, SCALE).run()
    }

    #[test]
    fn partners_are_within_window_and_distinct_from_self() {
        let p = params(SCALE);
        let partners = build_partners(&p);
        for i in 0..p.m {
            for &j in &partners[i * p.k..(i + 1) * p.k] {
                let j = j as usize;
                assert_ne!(j, i);
                assert!(j + p.w >= i && j <= i + p.w);
                assert!(j < p.m);
            }
        }
    }

    #[test]
    fn all_versions_match_sequential_within_tolerance() {
        let seq = run(Version::Seq, 1);
        for v in [Version::Tmk, Version::Spf, Version::Xhpf, Version::Pvme] {
            let r = run(v, 4);
            assert!(
                checksums_close(&r.checksum, &seq.checksum, 1e-9),
                "version {v:?}: {:?} vs {:?}",
                r.checksum,
                seq.checksum
            );
        }
    }

    #[test]
    fn inspector_cri_is_bitwise_identical_and_cheaper() {
        let spf = run(Version::Spf, 8);
        let cri = run(Version::SpfCri, 8);
        // The windowed ordered reduction preserves the unhinted merge's
        // addition sequence exactly: coordinates are bitwise identical.
        assert_eq!(
            spf.checksum.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            cri.checksum.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        assert!(
            cri.messages < spf.messages,
            "cri {} vs spf {}",
            cri.messages,
            spf.messages
        );
        assert!(cri.dsm.inspections > 0);
        assert!(cri.dsm.schedule_reuse > 0);
        assert!(cri.dsm.direct_reduces > 0, "merge rides the tree");
    }

    #[test]
    fn xhpf_moves_far_more_data() {
        // At tiny test scales the DSM's page granularity inflates its
        // byte counts, so only the ordering is asserted here; the
        // paper-shape factors are checked at a larger scale in the
        // integration suite and reproduced by the harness.
        let tmk = run(Version::Tmk, 4);
        let xhpf = run(Version::Xhpf, 4);
        let pvme = run(Version::Pvme, 4);
        assert!(
            xhpf.kbytes > tmk.kbytes,
            "{} vs {}",
            xhpf.kbytes,
            tmk.kbytes
        );
        assert!(xhpf.kbytes > 2 * pvme.kbytes);
        // (The DSM-beats-XHPF *time* ordering needs a realistic problem
        // size; it is asserted in tests/experiment_shape.rs.)
    }
}
