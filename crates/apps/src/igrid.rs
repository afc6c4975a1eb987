//! IGrid: 9-point relaxation through a run-time indirection map
//! (paper §6.1).
//!
//! The neighbour elements are accessed indirectly through mapping arrays
//! established at run time. The actual mapping is the identity (the
//! physical access pattern is a plain 9-point stencil with near-neighbour
//! locality), but no compiler can prove that — which is exactly the
//! paper's point:
//!
//! * the DSM versions fetch on demand and cache, so only the boundary
//!   columns that actually change hands are communicated (the paper's
//!   SPF/Tmk speedups of 7.54/7.88-class);
//! * **XHPF** cannot analyze the subscripts and makes every processor
//!   broadcast its whole partition after every step (140 MB of traffic in
//!   the paper, speedup 3.85);
//! * **PVMe (hand)** exploits the programmer's knowledge of the map and
//!   exchanges one boundary column per neighbour per step.
//!
//! The program ends by finding the maximum, minimum and sum of a 40 × 40
//! square in the middle of the grid — recognized as reductions by both
//! compilers (locks under SPF, collective reduces under XHPF).

use std::cell::{OnceCell, RefCell};
use std::ops::{Deref, DerefMut, Range};

use cri::{Access, Section};
use inspector::{Inspector, SharedMap};
use mpl::Comm;
use sp2sim::Node;
use spf::{block_range, LoopCtl, Schedule, Spf, SpfReduction};
use treadmarks::{ReadView, SharedArray, Tmk, TmkConfig};
use xhpf::Xhpf;

use crate::common::{meter_start, meter_stop, Slab, SpfMeter};
use crate::runner::{NodeOut, Version};

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Grid edge (paper: 500).
    pub n: usize,
    /// Timed iterations (paper: 19 of 20, the first excluded).
    pub iters: usize,
    /// Edge of the centre square reduced at the end (paper: 40).
    pub square: usize,
}

/// Paper-sized workload at `scale = 1.0`.
pub fn params(scale: f64) -> Params {
    if scale >= 1.0 {
        Params {
            n: 500,
            iters: 19,
            square: 40,
        }
    } else {
        let n = ((500.0 * scale) as usize).max(24);
        Params {
            n,
            iters: ((19.0 * scale).round() as usize).max(3),
            square: (n / 6).max(4),
        }
    }
}

/// Virtual cost per stencil point. Calibrated so the paper-size
/// sequential run lands near Table 1's 42.6 s (the kernel is
/// indirection-heavy and cache-hostile on a mid-90s node).
const PT_US: f64 = 8.2;
/// Virtual cost per element of the final reductions.
const RED_US: f64 = 0.05;

/// The indirection map, established at run time: identity.
/// Every version computes it locally with the same loop.
fn build_map(n: usize) -> Vec<u32> {
    (0..n * n).map(|k| k as u32).collect()
}

/// Initial grid: ones everywhere, spikes in the middle and towards the
/// lower-right corner.
fn init_full(n: usize) -> Slab {
    let mut s = Slab::new(n, 0, n);
    for j in 0..n {
        for i in 0..n {
            s.set(i, j, 1.0);
        }
    }
    s.set(n / 2, n / 2, 5.0);
    s.set(3 * n / 4, 3 * n / 4, 3.0);
    s
}

/// One relaxation step for columns `jr` (interior rows), reading through
/// the indirection map. `src` must hold columns `jr.start-1 ..= jr.end`;
/// `mapx`/`mapy` give, for each destination cell, the (row, col) the
/// 9-point stencil is centred on.
fn step<I, O>(
    src: &Slab<I>,
    mapx: &[u32],
    mapy: &[u32],
    out: &mut Slab<O>,
    n: usize,
    jr: Range<usize>,
) where
    I: Deref<Target = [f64]>,
    O: DerefMut<Target = [f64]>,
{
    for j in jr {
        for i in 1..n - 1 {
            let k = j * n + i;
            let mi = mapx[k] as usize % n;
            let mj = mapy[k] as usize % n;
            let v = 0.2 * src.at(mi, mj)
                + 0.1
                    * (src.at(mi - 1, mj)
                        + src.at(mi + 1, mj)
                        + src.at(mi, mj - 1)
                        + src.at(mi, mj + 1)
                        + src.at(mi - 1, mj - 1)
                        + src.at(mi + 1, mj + 1)
                        + src.at(mi - 1, mj + 1)
                        + src.at(mi + 1, mj - 1));
            out.set(i, j, v);
        }
    }
}

/// Split the flat identity map into the (row, col) component arrays the
/// program indexes with.
fn split_map(map: &[u32], n: usize) -> (Vec<u32>, Vec<u32>) {
    let mapx: Vec<u32> = map.iter().map(|&k| k % n as u32).collect();
    let mapy: Vec<u32> = map.iter().map(|&k| k / n as u32).collect();
    (mapx, mapy)
}

/// Min/max/sum over the centre square of the final grid.
fn reductions(s: &Slab, n: usize, square: usize) -> (f64, f64, f64) {
    let lo = n / 2 - square / 2;
    let (mut mn, mut mx, mut sum) = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
    for j in lo..lo + square {
        for i in lo..lo + square {
            let v = s.at(i, j);
            mn = mn.min(v);
            mx = mx.max(v);
            sum += v;
        }
    }
    (mn, mx, sum)
}

/// Checksum: grid sum, two probes, then min/max/sum of the square.
/// The square-sum summation order differs across versions, so the
/// comparison tolerance is relative (everything else is bit-exact).
fn checksum<D: Deref<Target = [f64]>>(
    s: &Slab<D>,
    n: usize,
    _square: usize,
    red: (f64, f64, f64),
) -> Vec<f64> {
    let total: f64 = s.data.iter().sum();
    vec![total, s.at(n / 2, n / 2), s.at(1, 1), red.0, red.1, red.2]
}

fn charge_step(node: &Node, cols: usize, n: usize) {
    node.advance(cols as f64 * (n - 2) as f64 * PT_US);
}

// ---------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------

fn seq_node(node: &Node, p: &Params) -> NodeOut {
    let n = p.n;
    let (mapx, mapy) = split_map(&build_map(n), n);
    let mut a = init_full(n);
    let mut b = init_full(n);
    let one = |src: &Slab, dst: &mut Slab| {
        step(src, &mapx, &mapy, dst, n, 1..n - 1);
        charge_step(node, n - 2, n);
    };
    // Warm-up iteration (the paper excludes the first of 20).
    one(&a.clone(), &mut b);
    std::mem::swap(&mut a, &mut b);
    let m = meter_start(node);
    for _ in 0..p.iters {
        let src = a.clone();
        one(&src, &mut b);
        std::mem::swap(&mut a, &mut b);
    }
    let red = reductions(&a, n, p.square);
    node.advance((p.square * p.square) as f64 * RED_US);
    NodeOut::plain(meter_stop(node, m), Some(checksum(&a, n, p.square, red)))
}

// ---------------------------------------------------------------------
// Hand-coded TreadMarks
// ---------------------------------------------------------------------

/// A read view of columns `cols` of a grid array.
fn read_cols<'t>(tmk: &'t Tmk, arr: SharedArray, n: usize, cols: &Range<usize>) -> ReadView<'t> {
    tmk.read(arr, cols.start * n..cols.end * n)
}

/// One relaxation step of columns `jr` through the DSM: the stencil
/// loads from the ghosted source pages and stores the interior rows of
/// the destination pages, both where they live (shared by the three
/// shared-memory versions).
fn dsm_step(
    tmk: &Tmk,
    (src_arr, dst_arr): (SharedArray, SharedArray),
    (mapx, mapy): (&[u32], &[u32]),
    n: usize,
    jr: &Range<usize>,
) {
    let ghosted = jr.start - 1..(jr.end + 1).min(n);
    let src = read_cols(tmk, src_arr, n, &ghosted);
    let mut dst = tmk.write(dst_arr, jr.start * n..jr.end * n);
    step(
        &Slab::over(n, ghosted.start, src.slice()),
        mapx,
        mapy,
        &mut Slab::over(n, jr.start, dst.slice_mut()),
        n,
        jr.clone(),
    );
}

/// Min/max/sum of this node's columns `sq` of the centre square of `arr`.
fn dsm_square_reduction(
    tmk: &Tmk,
    arr: SharedArray,
    n: usize,
    sq: &Range<usize>,
    rows: Range<usize>,
) -> (f64, f64, f64) {
    let view = read_cols(tmk, arr, n, sq);
    let src = Slab::over(n, sq.start, view.slice());
    let mut red = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
    for j in sq.clone() {
        for i in rows.clone() {
            let v = src.at(i, j);
            red.0 = red.0.min(v);
            red.1 = red.1.max(v);
            red.2 += v;
        }
    }
    red
}

/// Checksum of the whole grid `arr` (the master, after the timed part).
fn dsm_checksum(
    tmk: &Tmk,
    arr: SharedArray,
    n: usize,
    square: usize,
    red: (f64, f64, f64),
) -> Vec<f64> {
    let full = read_cols(tmk, arr, n, &(0..n));
    checksum(&Slab::over(n, 0, full.slice()), n, square, red)
}

fn tmk_node(node: &Node, p: &Params, cfg: &TmkConfig) -> NodeOut {
    let n = p.n;
    let me = node.id();
    let np = node.nprocs();
    let tmk = Tmk::new(node, *cfg);
    let arrs = [tmk.malloc_f64(n * n), tmk.malloc_f64(n * n)];
    // The map is established at run time; each node computes it locally
    // (hand coders know it is replicable).
    let (mapx, mapy) = split_map(&build_map(n), n);
    if me == 0 {
        for arr in arrs {
            let full = init_full(n);
            let mut w = tmk.write(arr, 0..n * n);
            w.slice_mut().copy_from_slice(&full.data);
        }
    }
    tmk.barrier(0);

    let jr = block_range(me, np, 1..n - 1);
    let one = |src_arr: SharedArray, dst_arr: SharedArray| {
        if !jr.is_empty() {
            dsm_step(&tmk, (src_arr, dst_arr), (&mapx, &mapy), n, &jr);
            charge_step(node, jr.len(), n);
        }
        tmk.barrier(1);
    };
    one(arrs[0], arrs[1]);
    let mut cur = 1; // arrs[cur] holds the latest grid
    let m = meter_start(node);
    for _ in 0..p.iters {
        one(arrs[cur], arrs[1 - cur]);
        cur = 1 - cur;
    }
    // Reductions over the centre square: partials in shared memory, the
    // master combines after a barrier.
    let partials = tmk.malloc_f64(np * 512);
    let sq_lo = n / 2 - p.square / 2;
    let sq = block_range(me, np, sq_lo..sq_lo + p.square);
    let mut red = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
    if !sq.is_empty() {
        red = dsm_square_reduction(&tmk, arrs[cur], n, &sq, sq_lo..sq_lo + p.square);
        node.advance((sq.len() * p.square) as f64 * RED_US);
    }
    {
        let mut w = tmk.write(partials, me * 512..me * 512 + 3);
        w[me * 512] = red.0;
        w[me * 512 + 1] = red.1;
        w[me * 512 + 2] = red.2;
    }
    tmk.barrier(2);
    let red = if me == 0 {
        let mut total = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
        for q in 0..np {
            let r = tmk.read(partials, q * 512..q * 512 + 3);
            total.0 = total.0.min(r[q * 512]);
            total.1 = total.1.max(r[q * 512 + 1]);
            total.2 += r[q * 512 + 2];
        }
        total
    } else {
        red
    };
    let timed = meter_stop(node, m);
    let cs = (me == 0).then(|| dsm_checksum(&tmk, arrs[cur], n, p.square, red));
    NodeOut::shared(&tmk, timed, cs)
}

// ---------------------------------------------------------------------
// SPF-generated shared memory
// ---------------------------------------------------------------------

fn spf_node(node: &Node, p: &Params, cfg: &TmkConfig) -> NodeOut {
    let n = p.n;
    let me = node.id();
    let np = node.nprocs();
    let meter = SpfMeter::new(node);
    let tmk = Tmk::new(node, *cfg);
    // The shared maps: declared before the run-time so loop bodies may
    // borrow them, allocated after it like every array the program
    // shares.
    let maps = OnceCell::new();
    let spf = Spf::new(&tmk);
    let arrs = [tmk.malloc_f64(n * n), tmk.malloc_f64(n * n)];
    // SPF allocates the map arrays in shared memory too (they are
    // accessed in the parallel loop); the master establishes them.
    let maps = maps.get_or_init(|| [SharedMap::alloc(&tmk, n * n), SharedMap::alloc(&tmk, n * n)]);
    let r_min = SpfReduction::new(&tmk, 1);
    let r_max = SpfReduction::new(&tmk, 2);
    let r_sum = SpfReduction::new(&tmk, 3);

    let (l_start, l_stop) = meter.register(&spf);
    let l_step = spf.register({
        let tmk = &tmk;
        move |ctl: &LoopCtl| {
            let jr = ctl.my_block(me, np);
            if jr.is_empty() {
                return;
            }
            let (src_arr, dst_arr) = if ctl.args[0] == 0 {
                (arrs[0], arrs[1])
            } else {
                (arrs[1], arrs[0])
            };
            // First touch pages the shared map in; it is cached locally
            // afterwards (read-only data never invalidates).
            let (mapx, mapy) = (maps[0].local(tmk), maps[1].local(tmk));
            dsm_step(tmk, (src_arr, dst_arr), (&mapx, &mapy), n, &jr);
            charge_step(node, jr.len(), n);
        }
    });
    let l_red = spf.register({
        let tmk = &tmk;
        move |ctl: &LoopCtl| {
            let cur = ctl.args[0] as usize;
            let sq_lo = n / 2 - p.square / 2;
            let sq = ctl.my_block(me, np);
            let mut red = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
            if !sq.is_empty() {
                red = dsm_square_reduction(tmk, arrs[cur], n, &sq, sq_lo..sq_lo + p.square);
                node.advance((sq.len() * p.square) as f64 * RED_US);
            }
            r_min.fold(tmk, red.0, f64::min);
            r_max.fold(tmk, red.1, f64::max);
            r_sum.fold(tmk, red.2, |a, b| a + b);
        }
    });

    let cs = spf.run(|mr| {
        // Master establishes the grid and the run-time mapping.
        for arr in arrs {
            let full = init_full(n);
            let mut w = mr.tmk().write(arr, 0..n * n);
            w.slice_mut().copy_from_slice(&full.data);
        }
        let (mapx, mapy) = split_map(&build_map(n), n);
        maps[0].publish(mr.tmk(), &mapx);
        maps[1].publish(mr.tmk(), &mapy);
        let mut cur = 0;
        mr.par_loop(l_step, 1..n - 1, Schedule::Block, &[cur]);
        cur = 1 - cur;
        mr.par_loop(l_start, 0..0, Schedule::Block, &[]);
        for _ in 0..p.iters {
            mr.par_loop(l_step, 1..n - 1, Schedule::Block, &[cur]);
            cur = 1 - cur;
        }
        r_min.reset(mr.tmk(), f64::INFINITY);
        r_max.reset(mr.tmk(), f64::NEG_INFINITY);
        r_sum.reset(mr.tmk(), 0.0);
        let sq_lo = n / 2 - p.square / 2;
        mr.par_loop(l_red, sq_lo..sq_lo + p.square, Schedule::Block, &[cur]);
        let red = (
            r_min.value(mr.tmk()),
            r_max.value(mr.tmk()),
            r_sum.value(mr.tmk()),
        );
        mr.par_loop(l_stop, 0..0, Schedule::Block, &[]);
        dsm_checksum(mr.tmk(), arrs[cur as usize], n, p.square, red)
    });
    NodeOut::shared(&tmk, meter.take(), cs)
}

// ---------------------------------------------------------------------
// SPF + CRI: inspector/executor over the run-time indirection map
// ---------------------------------------------------------------------

/// The SPF shape of [`spf_node`] with the §6-suggested repair: the
/// compiler cannot describe the map-indirected reads as regular
/// sections, so each step loop carries an **inspector** that walks the
/// shared map once and materializes the touched words as dynamic
/// sections. The executor path (the hint engine's schedule cache) then
/// feeds every later dispatch straight into aggregated validates and
/// rendezvous pushes at zero inspection cost. The double-buffered step
/// is registered once per buffer direction — two specializations of the
/// same encapsulated subroutine — so each direction's descriptor names
/// fixed arrays and the alternating dispatch stays hinted.
fn spf_cri_node(node: &Node, p: &Params, cfg: &TmkConfig) -> NodeOut {
    let n = p.n;
    let me = node.id();
    let np = node.nprocs();
    let meter = SpfMeter::new(node);
    let red_out = RefCell::new((f64::INFINITY, f64::NEG_INFINITY, 0.0));
    let insp = Inspector::new(node);
    let tmk = Tmk::new(node, *cfg);
    let arrs = [tmk.malloc_f64(n * n), tmk.malloc_f64(n * n)];
    let maps = [SharedMap::alloc(&tmk, n * n), SharedMap::alloc(&tmk, n * n)];
    let spf = Spf::new(&tmk);

    let (l_start, l_stop) = meter.register(&spf);
    let step_body = |src_arr: SharedArray, dst_arr: SharedArray| {
        let (tmk, maps) = (&tmk, &maps);
        move |ctl: &LoopCtl| {
            let jr = ctl.my_block(me, np);
            if jr.is_empty() {
                return;
            }
            let mapx = maps[0].local(tmk);
            let mapy = maps[1].local(tmk);
            dsm_step(tmk, (src_arr, dst_arr), (&mapx, &mapy), n, &jr);
            charge_step(node, jr.len(), n);
        }
    };
    let l_step = [
        spf.register(step_body(arrs[0], arrs[1])),
        spf.register(step_body(arrs[1], arrs[0])),
    ];
    // The inspector for one buffer direction: walk the shared map for
    // the evaluated node's block and compact every stencil read into a
    // dynamic section. The map itself is a declared read (its pages ride
    // the first dispatch as pushes — see the master's `produce` below).
    let step_access = |src_arr: SharedArray, dst_arr: SharedArray, consumer: usize| {
        let (tmk, maps, insp) = (&tmk, &maps, &insp);
        move |iters: &Range<usize>, q: usize, nprocs: usize| {
            let jr = block_range(q, nprocs, iters.clone());
            if jr.is_empty() {
                return vec![];
            }
            let mapx = maps[0].local(tmk);
            let mapy = maps[1].local(tmk);
            // Nine stencil reads per point: three words of each of three
            // rows, gathered a row segment at a time.
            let reads = insp.gather_spans(jr.clone().flat_map(|j| {
                let (mapx, mapy) = (&mapx, &mapy);
                (1..n - 1).flat_map(move |i| {
                    let k = j * n + i;
                    let mi = mapx[k] as usize % n;
                    let mj = mapy[k] as usize % n;
                    (mj - 1..mj + 2).map(move |row| row * n + mi - 1..row * n + mi + 2)
                })
            }));
            vec![
                Access::read(maps[0].arr(), Section::range(0..n * n)),
                Access::read(maps[1].arr(), Section::range(0..n * n)),
                Access::read(src_arr, reads),
                Access::write(dst_arr, Section::range(jr.start * n..jr.end * n))
                    .consumed_by_loop(consumer, 1..n - 1),
            ]
        }
    };
    spf.describe_inspector(l_step[0], step_access(arrs[0], arrs[1], l_step[1]));
    spf.describe_inspector(l_step[1], step_access(arrs[1], arrs[0], l_step[0]));
    // CRI recognizes the three reductions and routes them through the
    // direct binomial tree instead of SPF's lock-and-shared-page folds:
    // min and (negated) max combine exactly in one call, the sum stays
    // deterministic in tree order.
    let l_red = spf.register({
        let (tmk, red_out) = (&tmk, &red_out);
        move |ctl: &LoopCtl| {
            let cur = ctl.args[0] as usize;
            let sq_lo = n / 2 - p.square / 2;
            let sq = ctl.my_block(me, np);
            let mut red = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
            if !sq.is_empty() {
                red = dsm_square_reduction(tmk, arrs[cur], n, &sq, sq_lo..sq_lo + p.square);
                node.advance((sq.len() * p.square) as f64 * RED_US);
            }
            let mm = tmk.reduce_op(&[red.0, -red.1], treadmarks::ReduceOp::Min);
            let sum = tmk.reduce(&[red.2]);
            *red_out.borrow_mut() = (mm[0], -mm[1], sum[0]);
        }
    });

    let cs = spf.run(|mr| {
        for arr in arrs {
            let full = init_full(n);
            let mut w = mr.tmk().write(arr, 0..n * n);
            w.slice_mut().copy_from_slice(&full.data);
        }
        let (mapx, mapy) = split_map(&build_map(n), n);
        maps[0].publish(mr.tmk(), &mapx);
        maps[1].publish(mr.tmk(), &mapy);
        // The compiler knows the master's sequential code established the
        // grids and the map: declare them so their pages ride the first
        // dispatch as pushes instead of demand faults — the map pages in
        // particular feed every worker's inspector.
        mr.produce(&[
            Access::write(maps[0].arr(), Section::range(0..n * n))
                .consumed_by_loop(l_step[0], 1..n - 1),
            Access::write(maps[1].arr(), Section::range(0..n * n))
                .consumed_by_loop(l_step[0], 1..n - 1),
            Access::write(arrs[0], Section::range(0..n * n)).consumed_by_loop(l_step[0], 1..n - 1),
            Access::write(arrs[1], Section::range(0..n * n)).consumed_by_loop(l_step[0], 1..n - 1),
        ]);
        let mut cur = 0;
        mr.par_loop(l_step[cur], 1..n - 1, Schedule::Block, &[]);
        cur = 1 - cur;
        mr.par_loop(l_start, 0..0, Schedule::Block, &[]);
        for _ in 0..p.iters {
            mr.par_loop(l_step[cur], 1..n - 1, Schedule::Block, &[]);
            cur = 1 - cur;
        }
        let sq_lo = n / 2 - p.square / 2;
        mr.par_loop(
            l_red,
            sq_lo..sq_lo + p.square,
            Schedule::Block,
            &[cur as u64],
        );
        let red = *red_out.borrow();
        mr.par_loop(l_stop, 0..0, Schedule::Block, &[]);
        dsm_checksum(mr.tmk(), arrs[cur], n, p.square, red)
    });
    NodeOut::shared(&tmk, meter.take(), cs)
}

// ---------------------------------------------------------------------
// Message passing: XHPF-generated and hand-coded PVMe
// ---------------------------------------------------------------------

fn mp_node(node: &Node, p: &Params, xhpf_mode: bool) -> NodeOut {
    let n = p.n;
    let me = node.id();
    let np = node.nprocs();
    let comm = Comm::new(node);
    let x = Xhpf::new(&comm);
    let (mapx, mapy) = split_map(&build_map(n), n);

    // XHPF keeps full copies (it broadcasts whole partitions anyway);
    // the hand-coded version keeps a block with ghost columns.
    let mut src_full = init_full(n);
    let mut dst_full = init_full(n);
    let mut blk = x.block_array(n, n, 1);
    // Owner-computes: each process updates the interior columns of its
    // own partition (unlike the shared-memory versions, which are free
    // to partition the interior independently of page placement).
    let jr = {
        let o = blk.owned_cols();
        o.start.max(1)..o.end.min(n - 1)
    };
    for j in blk.owned_cols() {
        blk.col_mut(j).copy_from_slice(src_full.col(j));
    }

    // The hand-coded step reads and writes `blk`, so it keeps a double
    // buffer for its interior columns, allocated once.
    let mut out = Slab::new(n, jr.start, if xhpf_mode { 0 } else { jr.len() });
    let mut one = |src_full: &mut Slab, dst_full: &mut Slab, blk: &mut xhpf::BlockArray2| {
        let rc = blk.readable_cols();
        if xhpf_mode {
            // Compute into the local partition of dst, then broadcast the
            // whole partition to everyone (the unknown-pattern fallback).
            if !jr.is_empty() {
                let mut part = Slab::over(n, rc.start, blk.readable_mut());
                step(src_full, &mapx, &mapy, &mut part, n, jr.clone());
                charge_step(node, jr.len(), n);
            }
            x.broadcast_partition(blk, &mut dst_full.data);
            // Row 0 / n-1 are never written; keep them from src.
            x.loop_sync();
            std::mem::swap(src_full, dst_full);
        } else {
            // Hand-coded: the programmer knows the map is near-identity;
            // exchange one ghost column per neighbour, like Jacobi.
            x.exchange_ghost(blk, false);
            if !jr.is_empty() {
                let src = Slab::over(n, rc.start, blk.readable());
                step(&src, &mapx, &mapy, &mut out, n, jr.clone());
                charge_step(node, jr.len(), n);
                Slab::over(n, rc.start, blk.readable_mut()).copy_block_from(
                    &out,
                    1..n - 1,
                    jr.clone(),
                );
            }
        }
    };

    one(&mut src_full, &mut dst_full, &mut blk);
    let m = meter_start(node);
    for _ in 0..p.iters {
        one(&mut src_full, &mut dst_full, &mut blk);
    }
    // Reductions over the centre square. XHPF holds a full replica and
    // block-partitions the square; the hand-coded version owner-computes
    // over its own columns.
    let sq_lo = n / 2 - p.square / 2;
    let sq = if xhpf_mode {
        block_range(me, np, sq_lo..sq_lo + p.square)
    } else {
        let o = blk.owned_cols();
        o.start.max(sq_lo)..o.end.min(sq_lo + p.square)
    };
    let mut red = (f64::INFINITY, f64::NEG_INFINITY, 0.0);
    for j in sq.clone() {
        for i in sq_lo..sq_lo + p.square {
            let v = if xhpf_mode {
                src_full.at(i, j)
            } else {
                blk.at(i, j)
            };
            red.0 = red.0.min(v);
            red.1 = red.1.max(v);
            red.2 += v;
        }
    }
    node.advance((sq.len() * p.square) as f64 * RED_US);
    let red = (
        x.reduce_min(red.0),
        x.reduce_max(red.1),
        x.reduce_sum(red.2),
    );
    let timed = meter_stop(node, m);

    // Gather for validation (untimed).
    let own = if xhpf_mode {
        src_full.col_block(blk.owned_cols())
    } else {
        blk.owned()
    };
    let gathered = comm.gather_f64s(0, own);
    let cs = gathered.map(|parts| checksum(&Slab::over(n, 0, parts.concat()), n, p.square, red));
    NodeOut::plain(timed, cs)
}

/// One node of IGrid in `version`.
pub fn node(node: &Node, version: Version, p: &Params, cfg: &TmkConfig) -> NodeOut {
    match version {
        Version::Seq => seq_node(node, p),
        Version::Tmk | Version::HandOpt => tmk_node(node, p, cfg),
        // Irregular subscripts (run-time indirection map): the compiler
        // emits no regular-section descriptors. Plain SPF runs unhinted;
        // SPF+CRI runs the inspector/executor version, which materializes
        // the map once and reuses the communication schedule.
        Version::Spf => spf_node(node, p, cfg),
        Version::SpfCri => spf_cri_node(node, p, cfg),
        Version::Xhpf => mp_node(node, p, true),
        Version::Pvme => mp_node(node, p, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::checksums_close;
    use crate::runner::{AppId, RunResult, RunSpec};

    const SCALE: f64 = 0.08; // 40x40 grid, 3 iterations

    fn run(version: Version, nprocs: usize) -> RunResult {
        RunSpec::new(AppId::IGrid, version, nprocs, SCALE).run()
    }

    #[test]
    fn all_versions_match_sequential() {
        let seq = run(Version::Seq, 1);
        for v in [Version::Tmk, Version::Spf, Version::Xhpf, Version::Pvme] {
            let r = run(v, 4);
            // Grid values are bit-exact; the square-sum reduction order
            // differs, so compare with tolerance.
            assert!(
                checksums_close(&r.checksum, &seq.checksum, 1e-12),
                "version {v:?}: {:?} vs {:?}",
                r.checksum,
                seq.checksum
            );
            assert_eq!(r.checksum[..5], seq.checksum[..5], "exact part {v:?}");
        }
    }

    #[test]
    fn xhpf_broadcasts_far_more_data_than_dsm() {
        // Volume shape holds at any scale; the *time* ordering needs a
        // realistic problem size and is asserted in
        // tests/experiment_shape.rs.
        let spf = run(Version::Spf, 4);
        let xhpf = run(Version::Xhpf, 4);
        assert!(
            xhpf.kbytes > 3 * spf.kbytes,
            "xhpf {} KB vs spf {} KB",
            xhpf.kbytes,
            spf.kbytes
        );
    }

    #[test]
    fn inspector_cri_cuts_messages_with_identical_grid() {
        let spf = run(Version::Spf, 8);
        let cri = run(Version::SpfCri, 8);
        // Grid state (total, probes, min, max) is bitwise identical; the
        // square-sum reduction folds under a lock, so its order is
        // timing-dependent and compared with tolerance.
        assert_eq!(
            spf.checksum[..5]
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            cri.checksum[..5]
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        assert!(checksums_close(&spf.checksum, &cri.checksum, 1e-12));
        assert!(
            (cri.messages as f64) <= 0.70 * spf.messages as f64,
            "inspector hints must cut >= 30% of messages: cri {} vs spf {}",
            cri.messages,
            spf.messages
        );
        assert!(cri.dsm.inspections > 0);
        assert!(cri.dsm.schedule_reuse > 0, "schedule must be reused");
    }

    #[test]
    fn pvme_is_lean() {
        let pvme = run(Version::Pvme, 4);
        let xhpf = run(Version::Xhpf, 4);
        assert!(
            xhpf.kbytes > 3 * pvme.kbytes,
            "xhpf {} KB vs pvme {} KB",
            xhpf.kbytes,
            pvme.kbytes
        );
    }
}
