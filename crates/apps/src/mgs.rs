//! MGS: Modified Gramm-Schmidt orthonormalization (paper §5.3).
//!
//! At iteration `i` the algorithm normalizes vector `i` (sequential), then
//! makes all vectors `j > i` orthogonal to it (parallel). Vectors are
//! columns of a column-major matrix, distributed cyclically for load
//! balance. Version-specific behaviour reproduced here:
//!
//! * **SPF**: normalization is sequential code, so it runs on the master —
//!   vector `i` must move from its owner to the master and back out to
//!   everyone (the locality loss the paper blames for 3.35 vs 4.19);
//! * **TreadMarks (hand)**: the owner of vector `i` normalizes it in
//!   place; everyone else pages it in after one barrier per iteration;
//! * **XHPF**: SPMD — the owner sends the unnormalized vector to all
//!   processors, which then *all* redundantly execute the normalization
//!   (plus the run-time's per-loop synchronization);
//! * **PVMe (hand)**: the owner normalizes and tree-broadcasts the pivot;
//!   the broadcast doubles as the only synchronization (7 messages per
//!   iteration on 8 processors — the paper's 7168 total);
//! * **Hand-opt** (§5.3): the hand-coded TreadMarks program modified to
//!   merge data and synchronization through a TreadMarks *broadcast* of
//!   the pivot — the paper measures 5.09 vs 4.19 unoptimized.
//!
//! Shared-memory versions pad each column to a page boundary (SPF pads
//! shared arrays anyway; it also keeps the broadcast page-safe).

use std::ops::Range;

use cri::{Access, Section};
use mpl::Comm;
use sp2sim::Node;
use spf::Mode::{Read, Write};
use spf::{Cols, LoopCtl, Mode, Next, Schedule, Spf, Touch};
use treadmarks::{ReadView, Tmk, TmkConfig, WriteView};
use xhpf::Xhpf;

use crate::common::{hash01, meter_start, meter_stop, SpfMeter};
use crate::runner::{NodeOut, Version};

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    /// Number of vectors and their dimension (paper: 1024).
    pub n: usize,
}

/// Paper-sized workload at `scale = 1.0`.
pub fn params(scale: f64) -> Params {
    if scale >= 1.0 {
        Params { n: 1024 }
    } else {
        Params {
            n: ((1024.0 * scale) as usize).max(24),
        }
    }
}

/// Virtual cost per element of an orthogonalization update (dot + axpy).
const UPD_US: f64 = 0.1;
/// Virtual cost per element of a normalization.
const NORM_US: f64 = 0.1;

/// Deterministic well-conditioned input matrix.
fn init_col(n: usize, j: usize) -> Vec<f64> {
    (0..n)
        .map(|i| hash01(0xA11CE, (j * n + i) as u64) + if i == j { 2.0 } else { 0.0 })
        .collect()
}

fn normalize(col: &mut [f64]) {
    let norm = col.iter().map(|x| x * x).sum::<f64>().sqrt();
    for x in col.iter_mut() {
        *x /= norm;
    }
}

fn orthogonalize(pivot: &[f64], col: &mut [f64]) {
    let dot: f64 = pivot.iter().zip(col.iter()).map(|(a, b)| a * b).sum();
    for (c, p) in col.iter_mut().zip(pivot) {
        *c -= dot * p;
    }
}

/// Checksum over the final orthonormal basis: matrix sum plus a probe
/// plus one off-diagonal inner product (should be ~0).
fn checksum<C: AsRef<[f64]>>(cols: &[C]) -> Vec<f64> {
    let n = cols.len();
    let col = |j: usize| cols[j].as_ref();
    let sum: f64 = cols.iter().flat_map(|c| c.as_ref().iter()).sum();
    let probe = col(n / 2)[n / 3];
    let ortho: f64 = col(0).iter().zip(col(n - 1)).map(|(a, b)| a * b).sum();
    vec![sum, probe, ortho]
}

// ---------------------------------------------------------------------
// Sequential
// ---------------------------------------------------------------------

fn seq_node(node: &Node, p: &Params) -> NodeOut {
    let n = p.n;
    let mut cols: Vec<Vec<f64>> = (0..n).map(|j| init_col(n, j)).collect();
    let m = meter_start(node);
    for i in 0..n {
        let (head, rest) = cols.split_at_mut(i + 1);
        let pivot = &mut head[i];
        normalize(pivot);
        node.advance(n as f64 * NORM_US);
        for col in rest.iter_mut() {
            orthogonalize(pivot, col);
        }
        node.advance((n - i - 1) as f64 * n as f64 * UPD_US);
    }
    NodeOut::plain(meter_stop(node, m), Some(checksum(&cols)))
}

// ---------------------------------------------------------------------
// Shared-memory layout: columns padded to page boundaries
// ---------------------------------------------------------------------

struct PaddedMatrix {
    /// The columns, each padded to a multiple of the page size.
    cols: Cols,
    n: usize,
}

impl PaddedMatrix {
    fn alloc(tmk: &Tmk, n: usize) -> PaddedMatrix {
        let pw = tmk.config().page_words;
        let stride = n.div_ceil(pw) * pw;
        PaddedMatrix {
            cols: Cols::new(tmk.malloc_f64(n * stride), stride),
            n,
        }
    }

    /// The vectors of columns `cols`, in `mode`.
    fn touch(&self, cols: Range<usize>, mode: Mode) -> Touch {
        self.cols.touch(cols, mode).rows(0..self.n)
    }

    /// What node `q`'s share of the orthogonalization over `iters`
    /// touches: the pivot, column `iters.start - 1`, read even when the
    /// share is empty, and the node's columns of `iters` under the cyclic
    /// schedule, updated where they live (declared as writes: a write
    /// fetches the current content too).
    fn orthogonalization(&self, iters: &Range<usize>, q: usize, np: usize) -> [Touch; 2] {
        let i = iters.start - 1;
        [
            self.touch(i..i + 1, Read),
            self.touch(iters.clone(), Write).cyclic(q, np),
        ]
    }

    fn col_range(&self, j: usize) -> Range<usize> {
        j * self.cols.stride..j * self.cols.stride + self.n
    }

    /// Column `j` as a read view: the read faults.
    fn read_col<'t>(&self, tmk: &'t Tmk, j: usize) -> ReadView<'t> {
        tmk.read(self.cols.arr, self.col_range(j))
    }

    /// Column `j` for a read-modify-write: the loads fault first (a read
    /// view, dropped at once), then the stores (the write view returned,
    /// through which the column is updated where it lives).
    fn update_col<'t>(&self, tmk: &'t Tmk, j: usize) -> WriteView<'t> {
        drop(self.read_col(tmk, j));
        tmk.write(self.cols.arr, self.col_range(j))
    }

    /// Initialize the columns of `owned` — each owner its own, locality
    /// from the start.
    fn init(&self, tmk: &Tmk, owned: &Touch) {
        for j in owned.columns() {
            let mut w = tmk.write(self.cols.arr, self.col_range(j));
            w.slice_mut().copy_from_slice(&init_col(self.n, j));
        }
    }

    /// Orthogonalize the columns of an orthogonalization footprint
    /// against its pivot, in place; returns how many it updated.
    fn orthogonalize_cols(&self, tmk: &Tmk, [pivot, cols]: &[Touch; 2]) -> usize {
        let pivot = self.read_col(tmk, pivot.cols.start);
        let mut updated = 0;
        for j in cols.columns() {
            orthogonalize(pivot.slice(), self.update_col(tmk, j).slice_mut());
            updated += 1;
        }
        updated
    }
}

fn dsm_checksum(tmk: &Tmk, a: &PaddedMatrix) -> Vec<f64> {
    let views: Vec<ReadView> = (0..a.n).map(|j| a.read_col(tmk, j)).collect();
    let cols: Vec<&[f64]> = views.iter().map(ReadView::slice).collect();
    checksum(&cols)
}

// ---------------------------------------------------------------------
// Hand-coded TreadMarks (and the §5.3 broadcast hand-optimization)
// ---------------------------------------------------------------------

fn tmk_node(node: &Node, p: &Params, cfg: &TmkConfig, use_bcast: bool) -> NodeOut {
    let n = p.n;
    let me = node.id();
    let np = node.nprocs();
    let tmk = Tmk::new(node, *cfg);
    let a = PaddedMatrix::alloc(&tmk, n);
    a.init(&tmk, &a.touch(0..n, Write).cyclic(me, np));
    tmk.barrier(0);

    let m = meter_start(node);
    for i in 0..n {
        if i % np == me {
            normalize(a.update_col(&tmk, i).slice_mut());
            node.advance(n as f64 * NORM_US);
        }
        if use_bcast {
            // Hand-optimization: merged data + synchronization via a
            // TreadMarks broadcast of the pivot — no barrier.
            tmk.bcast_pages(i % np, a.cols.arr, a.col_range(i));
        } else {
            tmk.barrier(1);
        }
        let updated = a.orthogonalize_cols(&tmk, &a.orthogonalization(&(i + 1..n), me, np));
        node.advance(updated as f64 * n as f64 * UPD_US);
    }
    let timed = meter_stop(node, m);
    let cs = (me == 0).then(|| dsm_checksum(&tmk, &a));
    NodeOut::shared(&tmk, timed, cs)
}

// ---------------------------------------------------------------------
// SPF-generated shared memory
// ---------------------------------------------------------------------

/// The SPF version; with `cri` the compiler's descriptors hint the
/// broadcast-producing structure of §5.3: the orthogonalize loop's
/// cyclic column sets over a triangular iteration space (`DO J = I+1, N`,
/// [`Touch::cyclic`]), the next pivot's owner
/// pushes it to the master's sequential normalization
/// (`consumed_by_node(0)`), and the master declares its normalize write
/// through [`spf::Master::produce`] so the pivot rides the next fork to
/// every worker — data merged into synchronization exactly like the
/// hand broadcast, but compiler-described.
fn spf_node(node: &Node, p: &Params, cfg: &TmkConfig, cri: bool) -> NodeOut {
    let n = p.n;
    let me = node.id();
    let np = node.nprocs();
    let meter = SpfMeter::new(node);
    let tmk = Tmk::new(node, *cfg);
    let a = PaddedMatrix::alloc(&tmk, n);
    let spf = Spf::new(&tmk);

    let (l_start, l_stop) = meter.register(&spf);
    // The orthogonalization loop SPF encapsulates: iteration space
    // i+1..n, cyclic; args[0] carries the pivot index, which is also the
    // range's start less one.
    let l_upd = spf.register({
        let (tmk, a) = (&tmk, &a);
        move |ctl: &LoopCtl| {
            let updated = a.orthogonalize_cols(tmk, &a.orthogonalization(&ctl.range, me, np));
            node.advance(updated as f64 * n as f64 * UPD_US);
        }
    });
    // SPF also parallelizes the initialization loop.
    let init =
        |iters: &Range<usize>, q: usize, np: usize| a.touch(iters.clone(), Write).cyclic(q, np);
    let l_init = spf.register({
        let (tmk, a) = (&tmk, &a);
        move |ctl: &LoopCtl| a.init(tmk, &init(&ctl.range, me, np))
    });
    if cri {
        // Written columns feed the loop's next dispatch; the next pivot,
        // the dispatch's first column, also feeds the master's sequential
        // normalization.
        let a = &a;
        let upd = move |iters: &Range<usize>, q, np| Some(a.orthogonalization(iters, q, np));
        spf.describe(l_upd, upd, move |iters, _| {
            let pivot = Next::Node(0, iters.start..iters.start + 1);
            match iters.start + 1 < n {
                true => vec![Next::Loop(l_upd, iters.start + 1..n), pivot],
                false => vec![pivot],
            }
        });
        let init = move |iters: &Range<usize>, q, np| Some([init(iters, q, np)]);
        spf.describe(l_init, init, move |_, _| vec![Next::Loop(l_upd, 1..n)]);
    }

    let cs = spf.run(|mr| {
        mr.par_loop(l_init, 0..n, Schedule::Cyclic, &[]);
        mr.par_loop(l_start, 0..0, Schedule::Block, &[]);
        for i in 0..n {
            // Normalization is sequential code: the master executes it,
            // pulling vector i over from its owner (pushed there by the
            // hinted versions).
            normalize(a.update_col(mr.tmk(), i).slice_mut());
            node.advance(n as f64 * NORM_US);
            if cri {
                // The compiler's descriptor for the sequential write:
                // the normalized pivot is read by every node of the next
                // dispatch — push it with the fork (§5.3's merged data +
                // synchronization, compiler-described).
                mr.produce(&[Access::write(a.cols.arr, Section::range(a.col_range(i)))
                    .consumed_by_loop(l_upd, i + 1..n)]);
            }
            mr.par_loop(l_upd, i + 1..n, Schedule::Cyclic, &[i as u64]);
        }
        mr.par_loop(l_stop, 0..0, Schedule::Block, &[]);
        dsm_checksum(mr.tmk(), &a)
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
    // Cyclic distribution: column j lives on processor j % np.
    let mut cols: Vec<Option<Vec<f64>>> = (0..n)
        .map(|j| (j % np == me).then(|| init_col(n, j)))
        .collect();

    // Where a pivot owned elsewhere lands: the broadcast refills it in
    // place, so it is allocated once.
    let mut remote = Vec::new();

    let m = meter_start(node);
    for i in 0..n {
        let owner = i % np;
        // The owner's pivot is its column, used where it is.
        let (head, rest) = cols.split_at_mut(i + 1);
        let pivot = head[i].as_mut().unwrap_or(&mut remote);
        if xhpf_mode {
            // SPMD: the owner distributes the raw vector; everyone then
            // redundantly executes the normalization loop.
            comm.bcast_flat_f64s(owner, pivot);
            normalize(pivot);
            node.advance(n as f64 * NORM_US); // redundant on every proc
            x.loop_sync();
        } else {
            // Hand-coded: the owner normalizes; the tree broadcast is the
            // only synchronization.
            if owner == me {
                normalize(pivot);
                node.advance(n as f64 * NORM_US);
            }
            comm.bcast_f64s(owner, pivot);
        }
        let mut updated = 0;
        for col in rest.iter_mut().flatten() {
            orthogonalize(pivot, col);
            updated += 1;
        }
        node.advance(updated as f64 * n as f64 * UPD_US);
        if xhpf_mode {
            x.loop_sync();
        }
    }
    let timed = meter_stop(node, m);

    // Gather columns to rank 0 for validation (untimed).
    let mut flat = Vec::new();
    for j in (me..n).step_by(np) {
        flat.extend_from_slice(cols[j].as_ref().expect("own column"));
    }
    let gathered = comm.gather_f64s(0, &flat);
    let cs = gathered.map(|parts| {
        let mut all: Vec<&[f64]> = vec![&[]; n];
        for (rank, part) in parts.iter().enumerate() {
            for (j, col) in (rank..n).step_by(np).zip(part.chunks_exact(n)) {
                all[j] = col;
            }
        }
        checksum(&all)
    });
    NodeOut::plain(timed, cs)
}

/// One node of MGS in `version`.
pub fn node(node: &Node, version: Version, p: &Params, cfg: &TmkConfig) -> NodeOut {
    match version {
        Version::Seq => seq_node(node, p),
        Version::Tmk => tmk_node(node, p, cfg, false),
        Version::HandOpt => tmk_node(node, p, cfg, true),
        // MGS's loops are regular but triangular: the CRI version hints
        // them through `cri::Section::cyclic_cols` and the master's
        // `produce`.
        Version::Spf => spf_node(node, p, cfg, false),
        Version::SpfCri => spf_node(node, p, cfg, true),
        Version::Xhpf => mp_node(node, p, true),
        Version::Pvme => mp_node(node, p, false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{AppId, RunResult, RunSpec};

    const SCALE: f64 = 0.04; // 40 vectors of dimension 40

    fn run(version: Version, nprocs: usize) -> RunResult {
        RunSpec::new(AppId::Mgs, version, nprocs, SCALE).run()
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
    fn result_is_orthonormal() {
        let seq = run(Version::Seq, 1);
        // Third checksum component is an off-diagonal inner product.
        assert!(seq.checksum[2].abs() < 1e-9);
    }

    #[test]
    fn triangular_cri_is_bitwise_identical_and_cheaper() {
        let spf = run(Version::Spf, 4);
        let cri = run(Version::SpfCri, 4);
        // Hints only move data: the basis is bitwise identical.
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
        // Every demand fetch became a push riding a rendezvous.
        assert_eq!(cri.stats.messages(sp2sim::MsgKind::DiffReq), 0);
        assert!(cri.dsm.pages_pushed > 0);
    }

    #[test]
    fn pvme_uses_fewest_messages() {
        let pvme = run(Version::Pvme, 4);
        let xhpf = run(Version::Xhpf, 4);
        let tmk = run(Version::Tmk, 4);
        assert!(pvme.messages < xhpf.messages);
        assert!(pvme.messages < tmk.messages);
    }

    #[test]
    fn bcast_handopt_cuts_traffic_vs_plain_tmk() {
        let tmk = run(Version::Tmk, 4);
        let opt = run(Version::HandOpt, 4);
        assert!(opt.messages < tmk.messages);
        assert!(opt.time_us < tmk.time_us);
    }
}
