//! Jacobi: iterative 4-point-stencil solver for partial differential
//! equations (paper §5.1).
//!
//! Two arrays — data and scratch. Each iteration updates every interior
//! element from its four neighbours into the scratch array, then copies
//! the scratch array back. Arrays are column-major and partitioned by
//! columns; the stencil needs nearest-neighbour boundary columns.
//!
//! Paper workload: 2048 × 2048, 101 iterations with the last 100 timed.
//! Version-specific behaviour reproduced here:
//!
//! * **SPF** shares the scratch array, paying the twins and diffs a hand
//!   coder avoids — which SPF+CRI's derived privatization takes back;
//! * **TreadMarks (hand)** keeps scratch private and uses two barriers per
//!   iteration (the anti-dependence barrier between the phases);
//! * **XHPF** generates precise ghost-column exchanges plus one run-time
//!   synchronization per parallel loop;
//! * **PVMe (hand)** sends each boundary column in a single message that
//!   doubles as synchronization — no barriers at all;
//! * **Hand-opt** (§5.1) is the SPF version with communication
//!   aggregation, which the paper measures at 7.23 vs 7.55 for PVMe.

use std::ops::{Deref, DerefMut, Range};

use mpl::Comm;
use sp2sim::Node;
use spf::Mode::{Read, Update};
use spf::{block_range, Cols, LoopCtl, Next, Schedule, Spf};
use treadmarks::{Tmk, TmkConfig};
use xhpf::Xhpf;

use crate::common::{meter_start, meter_stop, share, Slab, SpfMeter};
use crate::runner::{NodeOut, Version};

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Grid edge (paper: 2048).
    pub n: usize,
    /// Timed iterations (paper: 100; one extra warm-up iteration runs
    /// untimed, like the paper's 101st).
    pub iters: usize,
}

/// Paper-sized workload at `scale = 1.0`; smaller scales shrink both the
/// grid edge and the iteration count (for tests and quick benches).
pub fn params(scale: f64) -> Params {
    if scale >= 1.0 {
        Params {
            n: 2048,
            iters: 100,
        }
    } else {
        Params {
            n: ((2048.0 * scale) as usize).max(24),
            iters: ((100.0 * scale).round() as usize).max(3),
        }
    }
}

/// Virtual cost per stencil point (phase 1), calibrated so the paper-size
/// sequential run lands near the mid-90s SP/2 time scale (~44 s).
const P1_US: f64 = 0.085;
/// Virtual cost per copied point (phase 2).
const P2_US: f64 = 0.020;

/// Phase 1: 4-point stencil for columns `jr` (interior rows).
/// `input` must hold columns `jr.start - 1 ..= jr.end`.
fn phase1<I, O>(input: &Slab<I>, out: &mut Slab<O>, n: usize, jr: Range<usize>)
where
    I: Deref<Target = [f64]>,
    O: DerefMut<Target = [f64]>,
{
    for j in jr {
        for i in 1..n - 1 {
            let v = 0.25
                * (input.at(i - 1, j)
                    + input.at(i + 1, j)
                    + input.at(i, j - 1)
                    + input.at(i, j + 1));
            out.set(i, j, v);
        }
    }
}

/// Initial grid: ones on the edges, zeroes in the interior.
fn init_full(n: usize) -> Slab {
    let mut s = Slab::new(n, 0, n);
    for j in 0..n {
        for i in 0..n {
            let edge = i == 0 || j == 0 || i == n - 1 || j == n - 1;
            s.set(i, j, if edge { 1.0 } else { 0.0 });
        }
    }
    s
}

/// Checksum: total plus three probe points.
fn checksum<D: Deref<Target = [f64]>>(s: &Slab<D>, n: usize) -> Vec<f64> {
    let sum: f64 = s.data.iter().sum();
    vec![
        sum,
        s.at(n / 2, n / 2),
        s.at(1, 1),
        s.at(n - 2, (n / 3).max(1)),
    ]
}

fn charge_phase1(node: &Node, cols: usize, n: usize) {
    node.advance(cols as f64 * (n - 2) as f64 * P1_US);
}

fn charge_phase2(node: &Node, cols: usize, n: usize) {
    node.advance(cols as f64 * (n - 2) as f64 * P2_US);
}

// ---------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------

fn seq_node(node: &Node, p: &Params) -> NodeOut {
    let n = p.n;
    let mut data = init_full(n);
    let mut scratch = Slab::new(n, 0, n);
    let one = |data: &mut Slab, scratch: &mut Slab| {
        phase1(data, scratch, n, 1..n - 1);
        charge_phase1(node, n - 2, n);
        for j in 1..n - 1 {
            for i in 1..n - 1 {
                let v = scratch.at(i, j);
                data.set(i, j, v);
            }
        }
        charge_phase2(node, n - 2, n);
    };
    one(&mut data, &mut scratch);
    let m = meter_start(node);
    for _ in 0..p.iters {
        one(&mut data, &mut scratch);
    }
    NodeOut::plain(meter_stop(node, m), Some(checksum(&data, n)))
}

// ---------------------------------------------------------------------
// Hand-coded TreadMarks
// ---------------------------------------------------------------------

fn tmk_node(node: &Node, p: &Params, cfg: &TmkConfig) -> NodeOut {
    let n = p.n;
    let me = node.id();
    let np = node.nprocs();
    let tmk = Tmk::new(node, *cfg);
    let arr = tmk.malloc_f64(n * n);
    if me == 0 {
        let full = init_full(n);
        let mut w = tmk.write(arr, 0..n * n);
        w.slice_mut().copy_from_slice(&full.data);
    }
    tmk.barrier(0);

    let jr = block_range(me, np, 1..n - 1);
    // Hand-coded version: the scratch array is private.
    let mut scratch = Slab::new(n, jr.start.max(1), jr.len());
    let one = |scratch: &mut Slab| {
        if !jr.is_empty() {
            let lo = jr.start - 1;
            let hi = (jr.end + 1).min(n);
            // The stencil reads the shared pages where they are; the view
            // ends with this block, before the barrier.
            let input = tmk.read(arr, lo * n..hi * n);
            phase1(&Slab::over(n, lo, input.slice()), scratch, n, jr.clone());
            charge_phase1(node, jr.len(), n);
        }
        tmk.barrier(1);
        if !jr.is_empty() {
            let mut w = tmk.write(arr, jr.start * n..jr.end * n);
            Slab::over(n, jr.start, w.slice_mut()).copy_block_from(scratch, 1..n - 1, jr.clone());
            drop(w);
            charge_phase2(node, jr.len(), n);
        }
        tmk.barrier(2);
    };
    one(&mut scratch);
    let m = meter_start(node);
    for _ in 0..p.iters {
        one(&mut scratch);
    }
    let timed = meter_stop(node, m);
    let cs = (me == 0).then(|| {
        let full = tmk.read(arr, 0..n * n);
        checksum(&Slab::over(n, 0, full.slice()), n)
    });
    NodeOut::shared(&tmk, timed, cs)
}

// ---------------------------------------------------------------------
// SPF-generated shared memory (and its §5 hand-optimized variant).
// With `cri`, the compiler's regular-section descriptors are attached:
// both loops read/write column blocks, so phase 1's ghost columns and
// the false-shared boundary pages of both arrays are pushed by their
// producers instead of being demand-fetched page by page.
// ---------------------------------------------------------------------

fn spf_node(node: &Node, p: &Params, cfg: &TmkConfig, cri: bool) -> NodeOut {
    let n = p.n;
    let me = node.id();
    let np = node.nprocs();
    let meter = SpfMeter::new(node);
    let tmk = Tmk::new(node, *cfg);
    let spf = Spf::new(&tmk);
    let data = Cols::new(tmk.malloc_f64(n * n), n);
    // SPF allocates the scratch array in shared memory.
    let scr = Cols::new(tmk.malloc_f64(n * n), n);
    // What a node's column block touches: the stencil reads the ghosted
    // data block and stores the interior rows of the scratch block, like
    // the loop nest SPF compiles; the copy goes back. Both store rows
    // `1..n-1` only, so their written blocks are updates, not writes
    // all over.
    let stencil = move |iters: &Range<usize>, q: usize, np: usize| {
        let jr = share(iters, q, np)?;
        let ghosted = jr.start - 1..(jr.end + 1).min(n);
        Some([data.touch(ghosted, Read), scr.touch(jr, Update)])
    };
    let copy = move |iters: &Range<usize>, q: usize, np: usize| {
        let jr = share(iters, q, np)?;
        Some([scr.touch(jr.clone(), Read), data.touch(jr, Update)])
    };
    let (l_start, l_stop) = meter.register(&spf);
    let l1 = spf.register({
        let tmk = &tmk;
        move |ctl: &LoopCtl| {
            let Some([input, out]) = stencil(&ctl.range, me, np) else {
                return;
            };
            let (view, mut w) = (input.read(tmk), out.write(tmk));
            phase1(
                &Slab::of(&input, view.slice()),
                &mut Slab::of(&out, w.slice_mut()),
                n,
                out.cols.clone(),
            );
            charge_phase1(node, out.cols.len(), n);
        }
    });
    let l2 = spf.register({
        let tmk = &tmk;
        move |ctl: &LoopCtl| {
            let Some([input, out]) = copy(&ctl.range, me, np) else {
                return;
            };
            let (s, mut w) = (input.read(tmk), out.write(tmk));
            Slab::of(&out, w.slice_mut()).copy_block_from(
                &Slab::of(&input, s.slice()),
                1..n - 1,
                out.cols.clone(),
            );
            charge_phase2(node, out.cols.len(), n);
        }
    });
    if cri {
        spf.describe(l1, stencil, move |_, _| vec![Next::Loop(l2, 1..n - 1)]);
        spf.describe(l2, copy, move |_, _| vec![Next::Loop(l1, 1..n - 1)]);
    }

    let cs = spf.run(|m| {
        {
            let full = init_full(n);
            let mut w = m.tmk().write(data.arr, 0..n * n);
            w.slice_mut().copy_from_slice(&full.data);
        }
        let interior = |id| LoopCtl::new(id, 1..n - 1, Schedule::Block, &[]);
        // The copy overwrites the ghost columns the stencil reads on the
        // neighbours: two dispatches, whatever the call site offers.
        let step = [interior(l1), interior(l2)];
        m.par_loops(&step);
        m.par_loop(l_start, 0..0, Schedule::Block, &[]);
        for _ in 0..p.iters {
            m.par_loops(&step);
        }
        m.par_loop(l_stop, 0..0, Schedule::Block, &[]);
        let full = m.tmk().read(data.arr, 0..n * n);
        checksum(&Slab::over(n, 0, full.slice()), n)
    });
    NodeOut::shared(&tmk, meter.take(), cs)
}

// ---------------------------------------------------------------------
// Message passing (XHPF-generated and hand-coded PVMe)
// ---------------------------------------------------------------------

fn mp_node(node: &Node, p: &Params, xhpf_mode: bool) -> NodeOut {
    let n = p.n;
    let comm = Comm::new(node);
    let x = Xhpf::new(&comm);
    let mut a = x.block_array(n, n, 1);
    // SPMD init: everyone initializes its own partition (the grid of
    // `init_full`: ones on the edges, zeroes inside).
    for j in a.owned_cols() {
        let col = a.col_mut(j);
        col.fill(if j == 0 || j == n - 1 { 1.0 } else { 0.0 });
        col[0] = 1.0;
        col[n - 1] = 1.0;
    }
    let jr = {
        let owned = a.owned_cols();
        owned.start.max(1)..owned.end.min(n - 1)
    };
    // Phase 1 reads `a` and phase 2 writes it, so the scratch array stays
    // as the double buffer; both live across iterations and the kernel
    // runs on `a`'s own storage, ghost columns included.
    let mut scratch = Slab::new(n, jr.start.max(1), jr.len());
    let one = |a: &mut xhpf::BlockArray2, scratch: &mut Slab| {
        x.exchange_ghost(a, false);
        let rc = a.readable_cols();
        if !jr.is_empty() {
            phase1(
                &Slab::over(n, rc.start, a.readable()),
                scratch,
                n,
                jr.clone(),
            );
            charge_phase1(node, jr.len(), n);
        }
        if xhpf_mode {
            x.loop_sync();
        }
        Slab::over(n, rc.start, a.readable_mut()).copy_block_from(scratch, 1..n - 1, jr.clone());
        charge_phase2(node, jr.len(), n);
        if xhpf_mode {
            x.loop_sync();
        }
    };
    one(&mut a, &mut scratch);
    let m = meter_start(node);
    for _ in 0..p.iters {
        one(&mut a, &mut scratch);
    }
    let timed = meter_stop(node, m);

    // Gather for validation (untimed).
    let gathered = comm.gather_f64s(0, a.owned());
    let cs = gathered.map(|parts| checksum(&Slab::over(n, 0, parts.concat()), n));
    NodeOut::plain(timed, cs)
}

/// One node of Jacobi in `version`.
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
    use crate::runner::{AppId, RunResult, RunSpec};

    const SCALE: f64 = 0.03; // 61x61 grid, 3 iterations

    fn run(version: Version, nprocs: usize) -> RunResult {
        RunSpec::new(AppId::Jacobi, version, nprocs, SCALE).run()
    }

    #[test]
    fn all_versions_match_sequential_bitwise() {
        let seq = run(Version::Seq, 1);
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
    fn parallel_versions_communicate() {
        let r = run(Version::Pvme, 4);
        // 3 boundary pairs, 2 messages each, 3 iterations; no sync.
        assert_eq!(r.messages, 3 * 2 * 3);
        let x = run(Version::Xhpf, 4);
        assert!(x.messages > r.messages, "XHPF adds per-loop syncs");
    }

    #[test]
    fn single_proc_parallel_versions_work() {
        let seq = run(Version::Seq, 1);
        for v in [Version::Tmk, Version::Spf, Version::Xhpf, Version::Pvme] {
            let r = run(v, 1);
            assert_eq!(r.checksum, seq.checksum, "version {v:?} on 1 proc");
        }
    }

    #[test]
    fn cri_matches_sequential_bitwise_and_cuts_messages() {
        let seq = run(Version::Seq, 1);
        let spf = run(Version::Spf, 8);
        let cri = run(Version::SpfCri, 8);
        // Hints are performance-only: byte-identical results.
        assert_eq!(cri.checksum, seq.checksum);
        assert_eq!(cri.checksum, spf.checksum);
        assert!(
            cri.messages < spf.messages,
            "cri {} vs spf {}",
            cri.messages,
            spf.messages
        );
        // The descriptors are regular sections covering every access, so
        // the hinted run validates and pushes instead of faulting.
        assert!(cri.dsm.validates > 0);
        assert!(cri.dsm.pages_pushed > 0);
    }

    #[test]
    fn spf_scratch_in_shared_memory_costs_twins() {
        let spf = run(Version::Spf, 4);
        let tmk = run(Version::Tmk, 4);
        // SPF twins both data and scratch pages; hand-coded only data.
        assert!(spf.dsm.twins > tmk.dsm.twins);
    }
}
