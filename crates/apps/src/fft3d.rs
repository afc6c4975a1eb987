//! 3-D FFT: the NAS FT kernel (paper §5.4).
//!
//! A complex `n1 × n2 × n3` array (column-major, interleaved re/im) is
//! reinitialized each iteration, transformed along all three dimensions
//! (the third pass inverse), normalized, and checksummed over 1024
//! strided elements. Six parallel loops per iteration.
//!
//! The first two FFT passes work on a block partition of `i3`; the
//! third-dimension pass needs a different partition (block on `i2`) — a
//! transpose. The shared-memory versions page the transposed data in
//! chunk by chunk (~30× the messages of the hand-coded message-passing
//! transpose, as the paper reports); the message-passing versions perform
//! an explicit all-to-all.
//!
//! * **TreadMarks (hand)**: exactly two barriers per iteration — after
//!   the transpose point and after the checksum — as the paper describes;
//! * **SPF**: synchronization around each of the six loops, lock-based
//!   reductions for the checksum;
//! * **XHPF**: all-to-all fragmented into run-time-sized packets plus one
//!   synchronization per loop;
//! * **PVMe (hand)**: single large message per peer in the transpose;
//! * **Hand-opt** (§5.4): the SPF version with communication aggregation
//!   (the paper's 5.05 vs 5.12 for hand-coded message passing).

use std::cell::RefCell;
use std::ops::Range;

use mpl::Comm;
use sp2sim::{Node, WordWriter};
use spf::Mode::{self, Update, Write};
use spf::{block_range, Cols, LoopCtl, Next, Schedule, Spf, SpfReduction, Touch};
use treadmarks::{Tmk, TmkConfig};
use xhpf::Xhpf;

use crate::common::{hash01, meter_start, meter_stop, share, SpfMeter};
use crate::runner::{NodeOut, Version};

/// Workload parameters (all dimensions powers of two).
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// First (contiguous) dimension. Paper: 128.
    pub n1: usize,
    /// Second dimension. Paper: 128.
    pub n2: usize,
    /// Third dimension. Paper: 64.
    pub n3: usize,
    /// Timed iterations (paper: 5 of 6, the first excluded).
    pub iters: usize,
}

impl Params {
    /// Total complex elements.
    pub fn elems(&self) -> usize {
        self.n1 * self.n2 * self.n3
    }
}

fn pow2_at_most(x: usize, min: usize) -> usize {
    let mut p = min;
    while p * 2 <= x {
        p *= 2;
    }
    p
}

/// Paper-sized workload at `scale = 1.0`.
pub fn params(scale: f64) -> Params {
    if scale >= 1.0 {
        Params {
            n1: 128,
            n2: 128,
            n3: 64,
            iters: 5,
        }
    } else {
        Params {
            n1: pow2_at_most((128.0 * scale) as usize + 8, 8),
            n2: pow2_at_most((128.0 * scale) as usize + 8, 8),
            n3: pow2_at_most((64.0 * scale) as usize + 8, 8),
            iters: ((5.0 * scale * 4.0).round() as usize).clamp(2, 5),
        }
    }
}

/// Per-element virtual costs, calibrated against Table 1's 37.7 s for 5
/// iterations of the paper size.
const INIT_US: f64 = 1.2;
const PASS_US: f64 = 1.8;
const NORM_US: f64 = 0.6;
const CS_US: f64 = 0.05;

/// Number of checksummed elements and their index stride.
const CS_COUNT: usize = 1024;
const CS_STRIDE: usize = 313;

/// In-place iterative radix-2 FFT over `len` complex elements taken from
/// `buf` at `(base + k * stride)` (element units; `buf` is interleaved).
fn fft_line(buf: &mut [f64], base: usize, stride: usize, len: usize, inverse: bool) {
    debug_assert!(len.is_power_of_two());
    // Gather the line.
    let mut re = vec![0.0; len];
    let mut im = vec![0.0; len];
    for k in 0..len {
        let e = 2 * (base + k * stride);
        re[k] = buf[e];
        im[k] = buf[e + 1];
    }
    // Bit-reversal permutation.
    let bits = len.trailing_zeros();
    for k in 0..len {
        let r = (k.reverse_bits() >> (usize::BITS - bits)) & (len - 1);
        if r > k {
            re.swap(k, r);
            im.swap(k, r);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut half = 1;
    while half < len {
        let step = std::f64::consts::PI / half as f64 * sign;
        for start in (0..len).step_by(2 * half) {
            for k in 0..half {
                let ang = step * k as f64;
                let (wr, wi) = (ang.cos(), ang.sin());
                let (a, b) = (start + k, start + k + half);
                let tr = wr * re[b] - wi * im[b];
                let ti = wr * im[b] + wi * re[b];
                re[b] = re[a] - tr;
                im[b] = im[a] - ti;
                re[a] += tr;
                im[a] += ti;
            }
        }
        half *= 2;
    }
    // Scatter back.
    for k in 0..len {
        let e = 2 * (base + k * stride);
        buf[e] = re[k];
        buf[e + 1] = im[k];
    }
}

/// Deterministic per-iteration initial value of element `e`.
fn init_val(it: usize, e: usize) -> (f64, f64) {
    (
        hash01(0xFF7 + it as u64, e as u64),
        hash01(0x5EED + it as u64, e as u64),
    )
}

/// Initialize elements `erange` of a buffer whose element 0 is global
/// element `base`.
fn init_elems(buf: &mut [f64], base: usize, erange: Range<usize>, it: usize) {
    for e in erange {
        let (re, im) = init_val(it, e);
        buf[2 * (e - base)] = re;
        buf[2 * (e - base) + 1] = im;
    }
}

/// FFT pass over dimension 1 for planes `i3r` of a buffer holding those
/// planes (base element = `i3r.start * n1 * n2`).
fn pass_dim1(buf: &mut [f64], p: &Params, i3r: Range<usize>) {
    let plane = p.n1 * p.n2;
    let base0 = i3r.start * plane;
    for i3 in i3r {
        for i2 in 0..p.n2 {
            fft_line(buf, i3 * plane + i2 * p.n1 - base0, 1, p.n1, false);
        }
    }
}

/// FFT pass over dimension 2, same layout as [`pass_dim1`].
fn pass_dim2(buf: &mut [f64], p: &Params, i3r: Range<usize>) {
    let plane = p.n1 * p.n2;
    let base0 = i3r.start * plane;
    for i3 in i3r {
        for i1 in 0..p.n1 {
            fft_line(buf, i3 * plane + i1 - base0, p.n1, p.n2, false);
        }
    }
}

/// Transposed local layout: lines over `i3`, contiguous per `(i2, i1)`:
/// index of `(i1, i2, i3)` = `((i2 - b2.start) * n1 + i1) * n3 + i3`.
struct TransposedBlock {
    b2: Range<usize>,
    data: Vec<f64>,
}

impl TransposedBlock {
    fn new(p: &Params, b2: Range<usize>) -> TransposedBlock {
        TransposedBlock {
            b2: b2.clone(),
            data: vec![0.0; 2 * p.n1 * b2.len() * p.n3],
        }
    }

    #[inline]
    fn line_base(&self, p: &Params, i1: usize, i2: usize) -> usize {
        ((i2 - self.b2.start) * p.n1 + i1) * p.n3
    }

    /// Inverse FFT over dimension 3 for every line held.
    fn pass_dim3(&mut self, p: &Params) {
        for i2 in self.b2.clone() {
            for i1 in 0..p.n1 {
                let base = self.line_base(p, i1, i2);
                fft_line(&mut self.data, base, 1, p.n3, true);
            }
        }
    }

    fn normalize(&mut self, inv: f64) {
        for v in self.data.iter_mut() {
            *v *= inv;
        }
    }

    /// Partial checksum over the strided sample elements owned here.
    fn checksum_partial(&self, p: &Params) -> (f64, f64, usize) {
        let elems = p.elems();
        let (mut re, mut im, mut cnt) = (0.0, 0.0, 0);
        for k in 0..CS_COUNT.min(elems) {
            let e = (k * CS_STRIDE) % elems;
            let i1 = e % p.n1;
            let i2 = (e / p.n1) % p.n2;
            let i3 = e / (p.n1 * p.n2);
            if self.b2.contains(&i2) {
                let b = 2 * (self.line_base(p, i1, i2) + i3);
                re += self.data[b];
                im += self.data[b + 1];
                cnt += 1;
            }
        }
        (re, im, cnt)
    }
}

// ---------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------

fn seq_node(node: &Node, p: &Params) -> NodeOut {
    let elems = p.elems();
    let mut a = vec![0.0; 2 * elems];
    let (mut acc_re, mut acc_im) = (0.0, 0.0);
    let one = |a: &mut Vec<f64>, it: usize| -> (f64, f64) {
        init_elems(a, 0, 0..elems, it);
        node.advance(elems as f64 * INIT_US);
        pass_dim1(a, p, 0..p.n3);
        node.advance(elems as f64 * PASS_US);
        pass_dim2(a, p, 0..p.n3);
        node.advance(elems as f64 * PASS_US);
        // Transpose into the dim-3 layout, like the parallel versions.
        let mut t = TransposedBlock::new(p, 0..p.n2);
        for i3 in 0..p.n3 {
            for i2 in 0..p.n2 {
                for i1 in 0..p.n1 {
                    let src = 2 * (i3 * p.n1 * p.n2 + i2 * p.n1 + i1);
                    let dst = 2 * (t.line_base(p, i1, i2) + i3);
                    t.data[dst] = a[src];
                    t.data[dst + 1] = a[src + 1];
                }
            }
        }
        t.pass_dim3(p);
        node.advance(elems as f64 * PASS_US);
        t.normalize(1.0 / elems as f64);
        node.advance(elems as f64 * NORM_US);
        let (re, im, cnt) = t.checksum_partial(p);
        node.advance(cnt as f64 * CS_US);
        // Keep the normalized element 0 around for the exact probe.
        a[0] = t.data[0];
        a[1] = t.data[1];
        (re, im)
    };
    one(&mut a, 0); // warm-up
    let m = meter_start(node);
    for it in 1..=p.iters {
        let (re, im) = one(&mut a, it);
        acc_re += re;
        acc_im += im;
    }
    NodeOut::plain(meter_stop(node, m), Some(vec![acc_re, acc_im, a[0], a[1]]))
}

// ---------------------------------------------------------------------
// Shared-memory helpers
// ---------------------------------------------------------------------

/// What a block `b2` of the second dimension is in the shared planes:
/// the `(i2 in b2)` chunk of every plane, which the transpose reads and
/// writes back.
fn chunks(planes: Cols, p: &Params, b2: &Range<usize>, mode: Mode) -> Touch {
    planes
        .touch(0..p.n3, mode)
        .rows(2 * b2.start * p.n1..2 * b2.end * p.n1)
}

/// Fetch a transposed block through the DSM, one view per chunk (this is
/// where the shared-memory versions take ~30× the messages of the
/// explicit all-to-all).
fn gather_transposed(tmk: &Tmk, p: &Params, chunks: &Touch) -> TransposedBlock {
    let b2 = chunks.rows.start / (2 * p.n1)..chunks.rows.end / (2 * p.n1);
    let mut t = TransposedBlock::new(p, b2.clone());
    for i3 in chunks.columns() {
        let view = tmk.read(chunks.at.arr, chunks.run(i3));
        let chunk = view.slice();
        for i2 in b2.clone() {
            for i1 in 0..p.n1 {
                let src = 2 * ((i2 - b2.start) * p.n1 + i1);
                let dst = 2 * (t.line_base(p, i1, i2) + i3);
                t.data[dst] = chunk[src];
                t.data[dst + 1] = chunk[src + 1];
            }
        }
    }
    t
}

/// Write a transposed block back into its chunks, one view per chunk.
fn scatter_transposed(tmk: &Tmk, p: &Params, chunks: &Touch, t: &TransposedBlock) {
    for i3 in chunks.columns() {
        let mut w = tmk.write(chunks.at.arr, chunks.run(i3));
        let s = w.slice_mut();
        for i2 in t.b2.clone() {
            for i1 in 0..p.n1 {
                let dst = 2 * ((i2 - t.b2.start) * p.n1 + i1);
                let src = 2 * (t.line_base(p, i1, i2) + i3);
                s[dst] = t.data[src];
                s[dst + 1] = t.data[src + 1];
            }
        }
    }
}

// ---------------------------------------------------------------------
// Hand-coded TreadMarks: two barriers per iteration
// ---------------------------------------------------------------------

fn tmk_node(node: &Node, p: &Params, cfg: &TmkConfig) -> NodeOut {
    let me = node.id();
    let np = node.nprocs();
    let elems = p.elems();
    let tmk = Tmk::new(node, *cfg);
    // The shared array as its planes: columns of `2 n1 n2` words.
    let planes = Cols::new(tmk.malloc_f64(2 * elems), 2 * p.n1 * p.n2);
    let partials = tmk.malloc_f64(np * 512);
    let b3 = block_range(me, np, 0..p.n3);
    let b2 = block_range(me, np, 0..p.n2);
    let plane_elems = p.n1 * p.n2;

    let one = |it: usize| -> (f64, f64) {
        // Phases 1-3 on the i3 partition, all inside one view.
        if !b3.is_empty() {
            let mut w = planes.touch(b3.clone(), Write).write(&tmk);
            let buf = w.slice_mut();
            init_elems(
                buf,
                b3.start * plane_elems,
                b3.start * plane_elems..b3.end * plane_elems,
                it,
            );
            node.advance((b3.len() * plane_elems) as f64 * INIT_US);
            pass_dim1(buf, p, b3.clone());
            node.advance((b3.len() * plane_elems) as f64 * PASS_US);
            pass_dim2(buf, p, b3.clone());
            node.advance((b3.len() * plane_elems) as f64 * PASS_US);
        }
        tmk.barrier(1); // the transpose point
        let mut partial = (0.0, 0.0, 0);
        if !b2.is_empty() {
            let chunks = chunks(planes, p, &b2, Update);
            let mut t = gather_transposed(&tmk, p, &chunks);
            t.pass_dim3(p);
            node.advance((p.n1 * b2.len() * p.n3) as f64 * PASS_US);
            t.normalize(1.0 / elems as f64);
            node.advance((p.n1 * b2.len() * p.n3) as f64 * NORM_US);
            partial = t.checksum_partial(p);
            node.advance(partial.2 as f64 * CS_US);
            scatter_transposed(&tmk, p, &chunks, &t);
        }
        {
            let mut w = tmk.write(partials, me * 512..me * 512 + 2);
            w[me * 512] = partial.0;
            w[me * 512 + 1] = partial.1;
        }
        tmk.barrier(2); // after the checksum
        if me == 0 {
            let mut sum = (0.0, 0.0);
            for q in 0..np {
                let r = tmk.read(partials, q * 512..q * 512 + 2);
                sum.0 += r[q * 512];
                sum.1 += r[q * 512 + 1];
            }
            sum
        } else {
            (0.0, 0.0)
        }
    };

    one(0); // warm-up
    let m = meter_start(node);
    let (mut acc_re, mut acc_im) = (0.0, 0.0);
    for it in 1..=p.iters {
        let (re, im) = one(it);
        acc_re += re;
        acc_im += im;
    }
    let timed = meter_stop(node, m);
    let cs = (me == 0).then(|| {
        let probe = tmk.read(planes.arr, 0..2);
        vec![acc_re, acc_im, probe[0], probe[1]]
    });
    NodeOut::shared(&tmk, timed, cs)
}

// ---------------------------------------------------------------------
// SPF-generated shared memory: six fork-joins per iteration.
// With `cri`, regular-section descriptors cover every loop: the
// transpose (the ~30x message blow-up the paper measures) becomes one
// aggregated push per producer/consumer pair, and the checksum uses the
// direct tree reduction instead of lock-guarded shared-page folding.
// ---------------------------------------------------------------------

fn spf_node(node: &Node, p: &Params, cfg: &TmkConfig, cri: bool) -> NodeOut {
    let me = node.id();
    let np = node.nprocs();
    let elems = p.elems();
    let meter = SpfMeter::new(node);
    // The transposed block persists between the dim-3/normalize/checksum
    // loops of one iteration (SPF keeps it in shared memory; we keep the
    // local copy and write through, which is equivalent traffic-wise
    // because the pages are re-read per loop through views). Declared
    // before the run-time so loop bodies may borrow it.
    let tblock = RefCell::new(None::<TransposedBlock>);
    // Direct-reduction result of the checksum loop (CRI variant): the
    // tree-combined total is returned on every node; the master's copy
    // feeds the sequential accumulation.
    let red_tot = RefCell::new((0.0, 0.0));
    let tmk = Tmk::new(node, *cfg);
    let spf = Spf::new(&tmk);
    let planes = Cols::new(tmk.malloc_f64(2 * elems), 2 * p.n1 * p.n2);
    let r_re = SpfReduction::new(&tmk, 1);
    let r_im = SpfReduction::new(&tmk, 2);
    let plane_elems = p.n1 * p.n2;

    // What a node's share of each loop touches: the first passes work on
    // a block of planes, the dim-3 pass and the normalization on a block
    // of chunks.
    let on_planes = move |mode| {
        move |iters: &Range<usize>, q, np| Some([planes.touch(share(iters, q, np)?, mode)])
    };
    let on_chunks = move |mode| {
        move |iters: &Range<usize>, q, np| Some([chunks(planes, p, &share(iters, q, np)?, mode)])
    };

    let (l_start, l_stop) = meter.register(&spf);
    let l_init = spf.register({
        let tmk = &tmk;
        move |ctl: &LoopCtl| {
            let Some([t]) = on_planes(Write)(&ctl.range, me, np) else {
                return;
            };
            let (it, b3) = (ctl.args[0] as usize, t.cols.clone());
            let elems = b3.start * plane_elems..b3.end * plane_elems;
            init_elems(t.write(tmk).slice_mut(), elems.start, elems, it);
            node.advance((b3.len() * plane_elems) as f64 * INIT_US);
        }
    });
    // The two passes update their planes in place: a write view (it
    // fetches the current content too), declared as an update.
    let pass = |dim: fn(&mut [f64], &Params, Range<usize>)| {
        let tmk = &tmk;
        move |ctl: &LoopCtl| {
            let Some([t]) = on_planes(Update)(&ctl.range, me, np) else {
                return;
            };
            dim(t.write(tmk).slice_mut(), p, t.cols.clone());
            node.advance((t.cols.len() * plane_elems) as f64 * PASS_US);
        }
    };
    let l_fft1 = spf.register(pass(pass_dim1));
    let l_fft2 = spf.register(pass(pass_dim2));
    let l_fft3 = spf.register({
        let (tmk, tblock) = (&tmk, &tblock);
        move |ctl: &LoopCtl| {
            let Some([chunks]) = on_chunks(Update)(&ctl.range, me, np) else {
                return;
            };
            let mut t = gather_transposed(tmk, p, &chunks);
            t.pass_dim3(p);
            node.advance((p.n1 * t.b2.len() * p.n3) as f64 * PASS_US);
            scatter_transposed(tmk, p, &chunks, &t);
            *tblock.borrow_mut() = Some(t);
        }
    });
    let l_norm = spf.register({
        let (tmk, tblock) = (&tmk, &tblock);
        move |ctl: &LoopCtl| {
            let Some([chunks]) = on_chunks(Write)(&ctl.range, me, np) else {
                return;
            };
            let mut cell = tblock.borrow_mut();
            let t = cell.as_mut().expect("dim-3 loop ran");
            t.normalize(1.0 / elems as f64);
            node.advance((p.n1 * t.b2.len() * p.n3) as f64 * NORM_US);
            scatter_transposed(tmk, p, &chunks, t);
        }
    });
    let l_cs = spf.register({
        let (tmk, tblock, red_tot) = (&tmk, &tblock, &red_tot);
        move |ctl: &LoopCtl| {
            let b2 = ctl.my_block(me, np);
            let partial = if b2.is_empty() {
                (0.0, 0.0, 0)
            } else {
                let cell = tblock.borrow();
                cell.as_ref().expect("normalize ran").checksum_partial(p)
            };
            node.advance(partial.2 as f64 * CS_US);
            if cri {
                // The compiler knows this is a sum reduction: combine the
                // partials directly along the tree, 2 (n - 1) messages.
                let tot = tmk.reduce(&[partial.0, partial.1]);
                *red_tot.borrow_mut() = (tot[0], tot[1]);
            } else {
                r_re.fold(tmk, partial.0, |a, b| a + b);
                r_im.fold(tmk, partial.1, |a, b| a + b);
            }
        }
    });

    if cri {
        let next = |l, over: Range<usize>| {
            move |_: &Range<usize>, _: &Touch| vec![Next::Loop(l, over.clone())]
        };
        spf.describe(l_init, on_planes(Write), next(l_fft1, 0..p.n3));
        spf.describe(l_fft1, on_planes(Update), next(l_fft2, 0..p.n3));
        // The transpose: consumed by the dim-3 pass, which reads a
        // different partition (block on i2) — the producer pushes each
        // consumer's chunk overlap in one message.
        spf.describe(l_fft2, on_planes(Update), next(l_fft3, 0..p.n2));
        spf.describe(l_fft3, on_chunks(Update), next(l_norm, 0..p.n2));
        // The normalized scatter is what the next iteration's init (a
        // write over the i3 partition) makes consistent first.
        spf.describe(l_norm, on_chunks(Write), next(l_init, 0..p.n3));
    }

    let cs = spf.run(|mr| {
        let one = |it: usize| -> (f64, f64) {
            mr.par_loop(l_init, 0..p.n3, Schedule::Block, &[it as u64]);
            mr.par_loop(l_fft1, 0..p.n3, Schedule::Block, &[]);
            mr.par_loop(l_fft2, 0..p.n3, Schedule::Block, &[]);
            mr.par_loop(l_fft3, 0..p.n2, Schedule::Block, &[]);
            mr.par_loop(l_norm, 0..p.n2, Schedule::Block, &[]);
            if cri {
                mr.par_loop(l_cs, 0..p.n2, Schedule::Block, &[]);
                *red_tot.borrow()
            } else {
                r_re.reset(mr.tmk(), 0.0);
                r_im.reset(mr.tmk(), 0.0);
                mr.par_loop(l_cs, 0..p.n2, Schedule::Block, &[]);
                (r_re.value(mr.tmk()), r_im.value(mr.tmk()))
            }
        };
        one(0); // warm-up
        mr.par_loop(l_start, 0..0, Schedule::Block, &[]);
        let (mut acc_re, mut acc_im) = (0.0, 0.0);
        for it in 1..=p.iters {
            let (re, im) = one(it);
            acc_re += re;
            acc_im += im;
        }
        mr.par_loop(l_stop, 0..0, Schedule::Block, &[]);
        let probe = mr.tmk().read(planes.arr, 0..2);
        vec![acc_re, acc_im, probe[0], probe[1]]
    });
    NodeOut::shared(&tmk, meter.take(), cs)
}

// ---------------------------------------------------------------------
// Message passing: explicit all-to-all transpose
// ---------------------------------------------------------------------

/// Store the interleaved `(re, im)` words of `vals` at the element
/// offsets `dsts` yields, one offset per pair: the scatter half of the
/// transpose, straight from a payload (or from our own planes).
fn scatter(
    vals: impl IntoIterator<Item = u64>,
    dsts: &mut impl Iterator<Item = usize>,
    out: &mut [f64],
) {
    let mut vals = vals.into_iter().map(f64::from_bits);
    while let Some(re) = vals.next() {
        let dst = dsts.next().expect("a destination per element");
        out[dst] = re;
        out[dst + 1] = vals.next().expect("complex values come in pairs");
    }
}

/// What the owner of `i2` block `qb2` gets of the plane buffer `a`: per
/// plane held, that block's rows — one contiguous run.
fn share_of<'a>(
    a: &'a [f64],
    p: &Params,
    qb2: Range<usize>,
) -> impl Iterator<Item = &'a [f64]> + 'a {
    let n1 = p.n1;
    a.chunks_exact(2 * p.n1 * p.n2)
        .map(move |plane| &plane[2 * qb2.start * n1..2 * qb2.end * n1])
}

/// Where the share sent by the holder of planes `qb3` lands in the
/// transposed block of `b2`: element offsets, in packing order.
fn landing(p: &Params, b2: Range<usize>, qb3: Range<usize>) -> impl Iterator<Item = usize> {
    let (n1, n3) = (p.n1, p.n3);
    qb3.flat_map(move |i3| (0..b2.len() * n1).map(move |line| 2 * (line * n3 + i3)))
}

fn mp_node(node: &Node, p: &Params, xhpf_mode: bool) -> NodeOut {
    let me = node.id();
    let np = node.nprocs();
    let elems = p.elems();
    let comm = Comm::new(node);
    let x = Xhpf::new(&comm);
    let b3 = block_range(me, np, 0..p.n3);
    let b2 = block_range(me, np, 0..p.n2);
    let plane_elems = p.n1 * p.n2;
    let mut a = vec![0.0; 2 * b3.len() * plane_elems];
    // Both layouts live across iterations; a transpose overwrites every
    // element of the transposed block.
    let mut t = TransposedBlock::new(p, b2.clone());
    let (mut acc_re, mut acc_im) = (0.0, 0.0);
    let mut probe = (0.0, 0.0);
    let peers = || (0..np).filter(move |&q| q != me);
    let b2_of = |q: usize| block_range(q, np, 0..p.n2);
    let words_to = |q: usize| 2 * b3.len() * b2_of(q).len() * p.n1;
    let landing_from = |q: usize| landing(p, b2.clone(), block_range(q, np, 0..p.n3));

    let mut one = |a: &mut Vec<f64>, t: &mut TransposedBlock, it: usize| -> (f64, f64) {
        if !b3.is_empty() {
            init_elems(
                a,
                b3.start * plane_elems,
                b3.start * plane_elems..b3.end * plane_elems,
                it,
            );
            node.advance((b3.len() * plane_elems) as f64 * INIT_US);
            pass_dim1(a, p, b3.clone());
            node.advance((b3.len() * plane_elems) as f64 * PASS_US);
            pass_dim2(a, p, b3.clone());
            node.advance((b3.len() * plane_elems) as f64 * PASS_US);
        }
        if xhpf_mode {
            x.loop_sync();
        }
        // Explicit transpose: every share is packed straight from `a`
        // and scattered straight into `t`, our own without a message.
        if xhpf_mode {
            // The XHPF run-time sends fragmented point-to-point packets.
            for q in peers() {
                x.send_fragmented(q, 400, words_to(q), share_of(a, p, b2_of(q)));
            }
            for q in peers() {
                let mut dsts = landing_from(q).peekable();
                while dsts.peek().is_some() {
                    scatter(comm.recv(q, 400), &mut dsts, &mut t.data);
                }
            }
        } else {
            comm.alltoall_packed(
                |q| {
                    let mut w = WordWriter::with_capacity(words_to(q));
                    share_of(a, p, b2_of(q)).for_each(|run| {
                        w.put_f64s(run);
                    });
                    w.finish()
                },
                |q, payload| scatter(payload, &mut landing_from(q), &mut t.data),
            );
        }
        let own = share_of(a, p, b2.clone()).flatten().map(|x| x.to_bits());
        scatter(own, &mut landing_from(me), &mut t.data);
        if xhpf_mode {
            x.loop_sync();
        }
        t.pass_dim3(p);
        node.advance((p.n1 * b2.len() * p.n3) as f64 * PASS_US);
        if xhpf_mode {
            x.loop_sync();
        }
        t.normalize(1.0 / elems as f64);
        node.advance((p.n1 * b2.len() * p.n3) as f64 * NORM_US);
        if xhpf_mode {
            x.loop_sync();
        }
        let partial = t.checksum_partial(p);
        node.advance(partial.2 as f64 * CS_US);
        let sums = if xhpf_mode {
            let re = x.reduce_sum(partial.0);
            let im = x.reduce_sum(partial.1);
            x.loop_sync();
            (re, im)
        } else {
            let v = comm.allreduce_sum_f64(&[partial.0, partial.1]);
            (v[0], v[1])
        };
        if b2.contains(&0) {
            probe = (t.data[0], t.data[1]);
        }
        sums
    };

    one(&mut a, &mut t, 0); // warm-up
    let m = meter_start(node);
    for it in 1..=p.iters {
        let (re, im) = one(&mut a, &mut t, it);
        acc_re += re;
        acc_im += im;
    }
    let timed = meter_stop(node, m);
    // Element 0 lives on the owner of i2 = 0 (rank 0).
    let cs = (me == 0).then(|| vec![acc_re, acc_im, probe.0, probe.1]);
    NodeOut::plain(timed, cs)
}

/// One node of 3-D FFT in `version`.
pub fn node(node: &Node, version: Version, p: &Params, cfg: &TmkConfig) -> NodeOut {
    match version {
        Version::Seq => seq_node(node, p),
        Version::Tmk => tmk_node(node, p, cfg),
        Version::Spf | Version::HandOpt => spf_node(node, p, cfg, false),
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

    const SCALE: f64 = 0.05; // 8 x 8 x 8

    fn run(version: Version, nprocs: usize) -> RunResult {
        RunSpec::new(AppId::Fft3d, version, nprocs, SCALE).run()
    }

    #[test]
    fn fft_line_roundtrip() {
        // forward then inverse (with 1/n) restores the input.
        let n = 16;
        let mut buf: Vec<f64> = (0..2 * n).map(|k| hash01(1, k as u64)).collect();
        let orig = buf.clone();
        fft_line(&mut buf, 0, 1, n, false);
        fft_line(&mut buf, 0, 1, n, true);
        for v in buf.iter_mut() {
            *v /= n as f64;
        }
        for (a, b) in buf.iter().zip(&orig) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_of_constant_is_impulse() {
        let n = 8;
        let mut buf = vec![0.0; 2 * n];
        for k in 0..n {
            buf[2 * k] = 1.0;
        }
        fft_line(&mut buf, 0, 1, n, false);
        assert!((buf[0] - n as f64).abs() < 1e-12);
        for k in 1..n {
            assert!(buf[2 * k].abs() < 1e-12);
            assert!(buf[2 * k + 1].abs() < 1e-12);
        }
    }

    #[test]
    fn strided_lines_are_independent() {
        // Transforming a strided line must not disturb other elements.
        let n = 8;
        let stride = 4;
        let mut buf: Vec<f64> = (0..2 * n * stride).map(|k| k as f64).collect();
        let orig = buf.clone();
        fft_line(&mut buf, 1, stride, n, false);
        for e in 0..n * stride {
            if e % stride != 1 {
                assert_eq!(buf[2 * e], orig[2 * e]);
                assert_eq!(buf[2 * e + 1], orig[2 * e + 1]);
            }
        }
    }

    #[test]
    fn all_versions_match_sequential() {
        let seq = run(Version::Seq, 1);
        for v in [Version::Tmk, Version::Spf, Version::Xhpf, Version::Pvme] {
            let r = run(v, 4);
            assert!(
                checksums_close(&r.checksum, &seq.checksum, 1e-9),
                "version {v:?}: {:?} vs {:?}",
                r.checksum,
                seq.checksum
            );
            // The element-0 probe is bit-exact.
            assert_eq!(r.checksum[2..], seq.checksum[2..], "probe {v:?}");
        }
    }

    #[test]
    fn cri_matches_sequential_and_cuts_messages() {
        let seq = run(Version::Seq, 1);
        let spf = run(Version::Spf, 4);
        let cri = run(Version::SpfCri, 4);
        // The direct reduction combines in tree order, so the checksum
        // accumulators match to tolerance; the element-0 probe is
        // reduction-free and stays bit-exact.
        assert!(
            checksums_close(&cri.checksum, &seq.checksum, 1e-9),
            "cri {:?} vs seq {:?}",
            cri.checksum,
            seq.checksum
        );
        assert_eq!(cri.checksum[2..], seq.checksum[2..], "probe");
        assert!(
            cri.messages < spf.messages,
            "cri {} vs spf {}",
            cri.messages,
            spf.messages
        );
        // Lock-based reduction folding is gone entirely.
        assert!(cri.dsm.direct_reduces > 0);
        assert!(cri.dsm.lock_acquires < spf.dsm.lock_acquires);
    }

    #[test]
    fn dsm_transpose_uses_many_more_messages_than_alltoall() {
        let tmk = run(Version::Tmk, 4);
        let pvme = run(Version::Pvme, 4);
        assert!(
            tmk.messages > 3 * pvme.messages,
            "tmk {} vs pvme {}",
            tmk.messages,
            pvme.messages
        );
    }
}
