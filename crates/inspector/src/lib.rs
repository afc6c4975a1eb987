//! # inspector — the inspector/executor runtime for irregular applications
//!
//! The paper's §6 conclusion identifies the one gap its compiler–runtime
//! interface cannot reach: IGrid and NBF access shared arrays through
//! **run-time indirection maps**, so no regular-section descriptor
//! exists at compile time and SPF+CRI degenerates to plain SPF exactly
//! where software DSM loses hardest. The classic repair (CHAOS/PARTI)
//! splits every irregular loop in two:
//!
//! * an **inspector** that walks the indirection map once, materializing
//!   the set of words the loop will actually touch;
//! * an **executor** that reuses the resulting communication schedule on
//!   every following iteration at zero inspection cost.
//!
//! This crate is the inspector half. It turns map walks into
//! [`Section`]s for [`cri::Access`] lists — the touched words as sorted
//! runs — and counts the indices each walk visits, which prices it:
//! [`INSPECT_ENTRY_US`] each, charged to a node's virtual clock by
//! [`Inspector::charge`], so the "inspector cost" column of the
//! experiment tables is real. The walk charges nothing itself; whoever
//! runs the inspection does. The executor half lives in `spf`: an
//! inspector described through `spf::Spf::describe_inspector` (the
//! application registers the loop body with `spf::Spf::register` and
//! describes it by its inspector under the same id) sits in the loop's
//! table entry, `spf`'s hint engine memoizes each `(loop, range, node)`
//! evaluation in a schedule cache — walked once per cluster, and
//! charged, from the count, on every node that reads it — and the cached
//! accesses feed the CRI machinery — aggregated validate before the
//! body, rendezvous-time pushes after it, and HLRC producer-home
//! placement at fork quiescence. Cache behaviour is observable per run
//! as `DsmStats::{inspections, inspect_us, schedule_reuse}`.
//!
//! An inspector is held to the contract of every loop description: a
//! pure function of `(iters, q, np)` for the whole run. The maps it
//! walks are published once ([`SharedMap::publish`] panics on a second
//! publish), so a cached schedule never goes stale.
//!
//! ## Example
//!
//! ```
//! use sp2sim::{Cluster, ClusterConfig};
//! use treadmarks::{Tmk, TmkConfig};
//! use cri::Access;
//! use inspector::Inspector;
//!
//! Cluster::run(ClusterConfig::sp2(2), |node| {
//!     let tmk = Tmk::new(node, TmkConfig::default());
//!     let a = tmk.malloc_f64(1024);
//!     // The run-time map: which element each iteration really reads.
//!     let map: Vec<u32> = (0..1024).rev().collect();
//!     let insp = Inspector::new(node);
//!     // Inspect iterations 0..512: the walk counts the indices it
//!     // visits, and the caller charges them (`spf` does, around every
//!     // inspection it runs).
//!     let before = insp.visited();
//!     let touched = insp.gather((0..512).map(|i| map[i] as usize));
//!     insp.charge(insp.visited() - before);
//!     let _access = Access::read(a, touched);
//!     tmk.finish();
//! });
//! ```

#![forbid(unsafe_code)]

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use cri::Section;
use sp2sim::Node;
use treadmarks::{SharedArray, Tmk};

/// Virtual cost per touched index an inspector walk produces: one map
/// lookup plus one insertion into the compacted run set. Small against
/// any real per-iteration compute (IGrid charges 8.2 µs per stencil
/// point), but nonzero — amortization must be *demonstrated*, not
/// assumed, which is what the `schedule_reuse` statistic is for.
pub const INSPECT_ENTRY_US: f64 = 0.02;

/// A node-bound inspector: compacts walked index streams into
/// [`Section`]s and counts the indices each walk visits, for whoever
/// charges the walk ([`Inspector::charge`]): `spf`'s hint engine, around
/// each inspection it runs.
pub struct Inspector<'n> {
    node: &'n Node,
    visited: Rc<Visited>,
}

/// The indices every node's inspectors have visited so far, by node: a
/// cluster slot whose entries each node alone reads and writes.
struct Visited(Box<[Cell<usize>]>);

impl<'n> Inspector<'n> {
    /// An inspector counting its walks on `node`.
    pub fn new(node: &'n Node) -> Inspector<'n> {
        let np = node.nprocs();
        let visited = node.cluster_slot(|| Visited((0..np).map(|_| Cell::new(0)).collect()));
        Inspector { node, visited }
    }

    /// Walk a stream of touched word indices (duplicates welcome) into a
    /// compacted section, counting each index produced.
    pub fn gather(&self, touched: impl IntoIterator<Item = usize>) -> Section {
        let _s = self.node.trace_span(sp2sim::SpanKind::Inspect, 0);
        let mut count = 0usize;
        let section = Section::from_indices(touched.into_iter().inspect(|_| count += 1));
        self.count(count);
        section
    }

    /// [`Inspector::gather`] for a walk that meets its indices a few
    /// neighbours at a time (a stencil point's row segments): the same
    /// section and the same count — every index the spans cover, since
    /// the walk still visits every subscript — with each span compacted
    /// in one step instead of index by index.
    pub fn gather_spans(&self, spans: impl IntoIterator<Item = std::ops::Range<usize>>) -> Section {
        let _s = self.node.trace_span(sp2sim::SpanKind::Inspect, 0);
        let mut count = 0usize;
        let section = Section::from_spans(spans.into_iter().inspect(|r| count += r.len()));
        self.count(count);
        section
    }

    /// How many indices the walks of every inspector on this node have
    /// visited so far: an inspection's walk visited the difference
    /// across it.
    pub fn visited(&self) -> usize {
        self.visited.0[self.node.id()].get()
    }

    /// Charge a walk that visited `visited` indices to the node:
    /// [`INSPECT_ENTRY_US`] each.
    pub fn charge(&self, visited: usize) {
        self.node.advance(visited as f64 * INSPECT_ENTRY_US);
    }

    fn count(&self, indices: usize) {
        let mine = &self.visited.0[self.node.id()];
        mine.set(mine.get() + indices);
    }
}

/// An application-registered indirection map living in shared memory
/// (SPF allocates everything referenced inside a parallel loop in
/// shared memory, maps included): the master establishes it, every node
/// faults it in once and keeps a local integer materialization for the
/// inspector to walk. The map is fixed for the run once published, as
/// a loop's description is: the schedules inspected from it, and each
/// node's materialization, stay valid to the end.
pub struct SharedMap {
    arr: SharedArray,
    len: usize,
    published: Cell<bool>,
    cache: RefCell<Option<Rc<[u32]>>>,
}

impl SharedMap {
    /// Allocate a shared map of `len` entries (call on every node, same
    /// allocation order).
    pub fn alloc(tmk: &Tmk, len: usize) -> SharedMap {
        SharedMap {
            arr: tmk.malloc_f64(len),
            len,
            published: Cell::new(false),
            cache: RefCell::new(None),
        }
    }

    /// The underlying shared array (for access descriptors: consumers
    /// declare reads of the map itself, so its pages are pushed or
    /// validated like any other shared data).
    pub fn arr(&self) -> SharedArray {
        self.arr
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Establish the map, once — the master's run-time code. A second
    /// publish panics: a published map is fixed for the run.
    pub fn publish(&self, tmk: &Tmk, vals: &[u32]) {
        assert!(
            !self.published.replace(true),
            "shared map at page {} published twice: a published map is fixed for the run",
            self.arr.first_page()
        );
        assert_eq!(vals.len(), self.len);
        let mut w = tmk.write(self.arr, 0..self.len);
        for (x, &v) in w.slice_mut().iter_mut().zip(vals) {
            *x = v as f64;
        }
    }

    /// The local integer materialization, faulting the shared pages in
    /// on first use (the inspector loop's read of the map) and kept for
    /// the run: use it only once the map is published.
    pub fn local(&self, tmk: &Tmk) -> Rc<[u32]> {
        if let Some(m) = self.cache.borrow().as_ref() {
            return Rc::clone(m);
        }
        let r = tmk.read(self.arr, 0..self.len);
        let m: Rc<[u32]> = r.slice().iter().map(|&v| v as u32).collect();
        *self.cache.borrow_mut() = Some(Rc::clone(&m));
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2sim::{Cluster, ClusterConfig};
    use treadmarks::TmkConfig;

    #[test]
    fn gather_compacts_and_charges_time() {
        let out = Cluster::run(ClusterConfig::sp2(2), |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let t0 = node.now().us();
            let insp = Inspector::new(node);
            let s = insp.gather([7usize, 3, 4, 5, 4]);
            // The walk counts its indices and charges nothing itself;
            // every inspector of a node counts toward the node's total.
            let walked = node.now().us() - t0;
            Inspector::new(node).gather_spans(std::iter::once(node.id()..node.id() + 2));
            let visited = insp.visited();
            insp.charge(5);
            let us = node.now().us() - t0;
            tmk.finish();
            (s.runs().to_vec(), walked, visited, us)
        });
        for (q, (runs, walked, visited, us)) in out.results.into_iter().enumerate() {
            assert_eq!(runs, vec![3..6, 7..8]);
            assert_eq!(walked, 0.0, "node {q}: the walk charged {walked}");
            assert_eq!(visited, 5 + 2, "node {q}");
            assert!((us - 5.0 * INSPECT_ENTRY_US).abs() < 1e-9, "charged {us}");
        }
    }

    #[test]
    fn shared_map_publishes_and_materializes() {
        let out = Cluster::run(ClusterConfig::sp2(2), |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let map = SharedMap::alloc(&tmk, 600);
            if tmk.proc_id() == 0 {
                let vals: Vec<u32> = (0..600).map(|k| (k * 7 % 600) as u32).collect();
                map.publish(&tmk, &vals);
            }
            tmk.barrier(0);
            let m = map.local(&tmk);
            // The second call is served from the cache (same Rc).
            let m2 = map.local(&tmk);
            assert!(Rc::ptr_eq(&m, &m2));
            tmk.barrier(1);
            let probe = (m[0], m[1], m[599]);
            tmk.finish();
            probe
        });
        for r in out.results {
            assert_eq!(r, (0, 7, (599 * 7 % 600) as u32));
        }
    }

    #[test]
    #[should_panic(expected = "published twice: a published map is fixed for the run")]
    fn a_second_publish_panics() {
        Cluster::run(ClusterConfig::sp2(1), |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let map = SharedMap::alloc(&tmk, 64);
            map.publish(&tmk, &[1; 64]);
            map.publish(&tmk, &[2; 64]);
        });
    }
}
