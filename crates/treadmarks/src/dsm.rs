//! The application-facing DSM interface.
//!
//! [`Tmk`] is the per-node handle: it owns the node's protocol state
//! (shared with the service loop), the shared-memory allocator mirror,
//! and the synchronization entry points. Shared data is accessed through
//! [`ReadView`]/[`WriteView`] handles — windows onto the page frames
//! (see [`crate::page`]) whose opening performs the page-granularity
//! access checks that `mprotect` performed in the original system.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

use sp2sim::{
    MsgKind, Node, Payload, Port, ReduceOp, ServiceHandle, SpanKind, StateCell, StateGuard,
    TraceSpanGuard, Tree, WordReader, WordWriter,
};

use crate::coherence::{Miss, PushList, Scratch};
use crate::config::TmkConfig;
use crate::diff::Landed;
use crate::interval::Intervals;
use crate::page::{PageId, Window};
pub use crate::page::{ReadView, WriteView};
use crate::protocol::{self, flags, op, tag};
use crate::service::{forward_reduce, service_loop};
use crate::state::{DsmState, Privacy};
use crate::stats::DsmStats;

/// Handle to an allocation in the global shared address space.
///
/// Allocations are page-aligned and padded to page boundaries (the SPF
/// compiler pads shared arrays to page boundaries to reduce false
/// sharing). Handles are plain values: all nodes performing the same
/// allocation sequence obtain identical handles without communication,
/// mirroring TreadMarks' statically located shared heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SharedArray {
    pub(crate) first_page: usize,
    pub(crate) len: usize,
    _not_send: PhantomData<*const ()>,
}

impl SharedArray {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Global page id of the allocation's first page. Together with
    /// [`Tmk::page_span`] this lets home-placement code (the CRI hint
    /// engine, tests) name the global pages an allocation occupies.
    pub fn first_page(&self) -> usize {
        self.first_page
    }

    /// True if the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The words one loop body declared it opens: per array, sorted and
/// disjoint word runs, all it declared and those it declared written
/// (`Write` or `Update`). While it is set ([`Tmk::fence_views`]), with
/// debug assertions, a write view opened outside the written runs
/// panics, naming the loop and the array, and so does a read view
/// outside the declared runs when `reads` says they are fenced too.
#[derive(Debug)]
pub struct ViewFence {
    /// The body's loop id.
    pub loop_id: usize,
    /// Whether read views are fenced: a footprint declares the words its
    /// body's views open, an inspector the words its body touches.
    pub reads: bool,
    /// The declared words, by array.
    pub arrays: Vec<(SharedArray, Vec<Range<usize>>)>,
    /// The declared written words, by array.
    pub writes: Vec<(SharedArray, Vec<Range<usize>>)>,
}

impl ViewFence {
    /// Panic unless `range` of `arr` lies inside one run the body
    /// declared — written, for a write view.
    fn check(&self, arr: SharedArray, range: &Range<usize>, write: bool) {
        if !write && !self.reads {
            return;
        }
        let sets = if write { &self.writes } else { &self.arrays };
        let runs = sets.iter().find(|(a, _)| *a == arr).map(|(_, r)| &r[..]);
        let runs = runs.unwrap_or_default();
        let i = runs.partition_point(|r| r.end < range.end);
        assert!(
            runs.get(i).is_some_and(|r| r.start <= range.start),
            "loop {} opens words {range:?} of the array at page {}{}, outside what its \
             descriptor declared {}for this node",
            self.loop_id,
            arr.first_page,
            if write { " to write" } else { "" },
            if write { "written " } else { "" },
        );
    }
}

/// The holes a meet push leaves: `(writer, page, seq, wire headers)`
/// per meet entry (`crate::hole`), sorted.
pub(crate) type MeetHoles<'a> = [(usize, PageId, u32, &'a [u64])];

/// Apply fetched or pushed diff ranges `(writer, entry)` in `(lamport,
/// writer)` order — a linear extension of happens-before — skipping what
/// the frame already holds, and leave `entries` empty (the messages its
/// windows kept alive go with them). Returns the time to charge.
///
/// A range applies only if no unapplied notice for its page sorts before
/// it ([`DsmState::notice_before`]): a push that skips an older diff, of
/// its own writer or another, is dropped, the page stays invalid, and
/// the next access fetches the whole set in order. A range that is the
/// meet of a push leaves the holes `holes` names for it once applied; a
/// range the frame already holds fills the holes it left
/// ([`DsmState::fill_holes`]).
pub(crate) fn apply_fetched(
    st: &mut DsmState,
    entries: &mut Vec<(usize, protocol::DiffRespEntry)>,
    holes: &MeetHoles,
    cost: &sp2sim::CostModel,
) -> f64 {
    entries.sort_by_key(|(w, e)| (e.range.lamport, *w));
    let mut us = 0.0;
    for (writer, protocol::DiffRespEntry { page, range }) in entries.drain(..) {
        if range.hi <= st.applied_seq(page, writer) {
            let filled = st.fill_holes(page, writer, range.hi, &range.diff);
            if filled > 0 {
                us += cost.diff_apply_us(filled);
            }
            continue;
        }
        if st.notice_before(page, (range.lamport, writer)) {
            continue;
        }
        st.apply_range(page, writer, range.hi, &range.diff);
        us += cost.diff_apply_us(range.diff.encoded_words());
        let key = (writer, page, range.hi);
        if let Ok(i) = holes.binary_search_by_key(&key, |h| (h.0, h.1, h.2)) {
            st.add_holes(page, writer, range.hi, holes[i].3);
        }
    }
    us
}

/// Merge `runs`, sorted by start, in place: the merged runs end up at
/// the front; returns how many there are.
fn merge_runs(runs: &mut [Range<usize>]) -> usize {
    let mut k = 0;
    for i in 0..runs.len() {
        if k > 0 && runs[i].start <= runs[k - 1].end {
            runs[k - 1].end = runs[k - 1].end.max(runs[i].end);
        } else {
            runs[k] = runs[i].clone();
            k += 1;
        }
    }
    k
}

/// A push list, the one value pushes are registered in
/// ([`Tmk::push_at_next_sync`]) and sent from: `(target, page, words)`
/// entries in registration order, `words` the page-relative word runs
/// the target reads on the page — the meet its push carries under LRC
/// (`crate::hole`) — or none for the whole page; and the spans of pages
/// the pusher rewrote, whose pushes **supersede** ([`Pushes::supersede`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Pushes {
    /// `(target, page, words)`, `words` indexing `runs`.
    list: Vec<(usize, PageId, Range<usize>)>,
    runs: Vec<Range<usize>>,
    /// `(page, span)`, the span page-relative.
    spans: Vec<(PageId, Range<usize>)>,
}

impl Pushes {
    /// Forget every entry and span, keeping the capacity.
    pub fn clear(&mut self) {
        self.list.clear();
        self.runs.clear();
        self.spans.clear();
    }

    /// The entries in registration order: `(target, page, words)`, the
    /// words empty for a whole page.
    pub fn iter(&self) -> impl Iterator<Item = (usize, PageId, &[Range<usize>])> + '_ {
        let words = |w: &Range<usize>| &self.runs[w.clone()];
        self.list.iter().map(move |(q, p, w)| (*q, *p, words(w)))
    }

    /// Push each of `pages` to `q` whole.
    pub fn whole(&mut self, q: usize, pages: impl IntoIterator<Item = PageId>) -> &mut Self {
        self.list.extend(pages.into_iter().map(|p| (q, p, 0..0)));
        self
    }

    /// Push `page` to `q`, which reads the words of `words` there —
    /// sorted, disjoint global word runs, on pages of `pw` words, one at
    /// least on the page. Under HLRC, or when the page is also pushed
    /// whole, the whole page goes.
    pub fn meet(&mut self, q: usize, page: PageId, words: &[Range<usize>], pw: usize) -> &mut Self {
        let (lo, hi, at) = (page * pw, (page + 1) * pw, self.runs.len());
        let first = words.partition_point(|w| w.end <= lo);
        let on_page = words[first..].iter().take_while(|w| w.start < hi);
        let runs = on_page.map(|w| w.start.max(lo) - lo..w.end.min(hi) - lo);
        self.runs.extend(runs);
        assert!(self.runs.len() > at, "a meet names words its target reads");
        self.list.push((q, page, at..self.runs.len()));
        self
    }

    /// Mark the elements `run` of `arr`, on pages of `pw` words, as
    /// rewritten: a push of a page they reach then **supersedes** what
    /// its target holds. Under LRC it carries the words of the page the
    /// runs cover, verbatim, with the page's applied watermarks, which a
    /// target installs where they dominate its own, whatever older diffs
    /// of the page — of any writer — it missed. The pusher promises that
    /// every other word of the page is one the target holds; with debug
    /// assertions the target checks it. Under HLRC a push carries its
    /// pages whole anyway.
    pub fn supersede(&mut self, arr: SharedArray, run: Range<usize>, pw: usize) -> &mut Self {
        debug_assert!(run.end <= arr.len, "span {run:?} beyond the array");
        if run.is_empty() {
            return self;
        }
        let base = arr.first_page * pw;
        let (wlo, whi) = (base + run.start, base + run.end);
        for p in wlo / pw..whi.div_ceil(pw) {
            let span = wlo.max(p * pw) - p * pw..whi.min((p + 1) * pw) - p * pw;
            self.spans.push((p, span));
        }
        self
    }
}

/// One node's TreadMarks instance.
pub struct Tmk<'n> {
    pub(crate) node: &'n Node,
    pub(crate) state: Rc<StateCell<DsmState>>,
    pub(crate) cfg: TmkConfig,
    svc: Cell<Option<ServiceHandle>>,
    /// Shared with the frame store, which sizes its page table by it.
    next_page: Rc<Cell<usize>>,
    req_seq: Cell<u32>,
    fork_epoch: Cell<u64>,
    barrier_epoch: Cell<u64>,
    bcast_seq: Cell<u32>,
    reduce_seq: Cell<u32>,
    window_seq: Cell<u32>,
    /// Trace epoch counter: bumped at every completed global
    /// synchronization point (barrier, worker dispatch, master join) so
    /// the trace analyzer can bin spans per epoch. Only advances when
    /// the cluster records a trace.
    trace_epoch: Cell<u32>,
    pub(crate) scratch: RefCell<Scratch>,
    /// What views may open, while a body of a fused dispatch runs.
    fence: RefCell<Option<ViewFence>>,
    /// The loop whose body runs here.
    body: Cell<Option<usize>>,
    /// Some page was ever made private or shared again here.
    privatized: Cell<bool>,
    /// Master: the last fork's join waits for the master's next action
    /// ([`Tmk::defer_join`]).
    deferred: Cell<bool>,
    /// Master: what a join that went before a fork left to it — the
    /// counts of the pushes it sent, which the fork announces…
    early_counts: RefCell<Vec<u64>>,
    /// …and the pushes to this node it left for the fork to take.
    intake: Cell<u64>,
}

impl<'n> Tmk<'n> {
    /// Create this node's DSM instance and start its service loop, a
    /// fiber of its own. Every node of the cluster must do this with
    /// identical `cfg`.
    pub fn new(node: &'n Node, cfg: TmkConfig) -> Tmk<'n> {
        let state = DsmState::new(node.id(), node.nprocs(), cfg);
        let next_page = Rc::clone(&state.frames.space_end);
        let state = Rc::new(StateCell::new(node, state));
        let svc_ep = node.take_service_endpoint();
        let svc_state = Rc::clone(&state);
        let svc = node.spawn_service(move || service_loop(svc_ep, svc_state, cfg.protocol));
        Tmk {
            node,
            state,
            cfg,
            svc: Cell::new(Some(svc)),
            next_page,
            req_seq: Cell::new(0),
            fork_epoch: Cell::new(0),
            barrier_epoch: Cell::new(0),
            bcast_seq: Cell::new(0),
            reduce_seq: Cell::new(0),
            window_seq: Cell::new(0),
            trace_epoch: Cell::new(0),
            scratch: RefCell::new(Scratch::new(node.nprocs())),
            fence: RefCell::new(None),
            body: Cell::new(None),
            privatized: Cell::new(false),
            deferred: Cell::new(false),
            early_counts: RefCell::new(Vec::new()),
            intake: Cell::new(0),
        }
    }

    /// This node's processor id (`Tmk_proc_id`).
    pub fn proc_id(&self) -> usize {
        self.node.id()
    }

    /// Number of processors (`Tmk_nprocs`).
    pub fn nprocs(&self) -> usize {
        self.node.nprocs()
    }

    /// The underlying simulated node.
    pub fn node(&self) -> &Node {
        self.node
    }

    /// The configuration this instance runs with.
    pub fn config(&self) -> &TmkConfig {
        &self.cfg
    }

    /// Allocate a shared array of `len` f64 elements (`Tmk_malloc`).
    /// Page-aligned and padded to a page boundary.
    pub fn malloc_f64(&self, len: usize) -> SharedArray {
        let pw = self.cfg.page_words;
        let pages = len.div_ceil(pw).max(1);
        let first_page = self.next_page.get();
        self.next_page.set(first_page + pages);
        SharedArray {
            first_page,
            len,
            _not_send: PhantomData,
        }
    }

    /// Snapshot of this node's DSM statistics.
    pub fn stats_snapshot(&self) -> DsmStats {
        self.state.lock().stats
    }

    /// Record one inspector walk (a dynamic-descriptor evaluation that
    /// missed the schedule cache) and its virtual-time cost. Called by
    /// the CRI hint engine's executor path.
    pub fn note_inspection(&self, us: f64) {
        let mut st = self.state.lock();
        st.stats.inspections += 1;
        // Ceil rather than round: a nonzero walk must never record as
        // free (the amortization gates assert `inspect_us > 0`), and a
        // ≤ 1 µs over-statement per inspection errs against the hint.
        st.stats.inspect_us += us.ceil() as u64;
    }

    /// Record `hits` schedule-cache hits (dynamic-descriptor evaluations
    /// served from the cached communication schedule — one at a time, or
    /// all the evaluations a replayed hint plan stands for).
    pub fn note_schedule_reuse(&self, hits: u64) {
        self.state.lock().stats.schedule_reuse += hits;
    }

    /// The home node of a global page (block-cyclic unless overridden).
    /// Meaningful under the home-based protocol; under LRC it reports
    /// what the assignment *would* be.
    pub fn page_home(&self, page: usize) -> usize {
        self.state.lock().home_of(page)
    }

    /// Override the home of `page` (HLRC). Every node must install the
    /// same override, and it is refused — returning `false` — once any
    /// write notice names the page (diffs may already live at the old
    /// home). The CRI hint engine uses this to make a compiler-declared
    /// producer the home of the pages it writes, which turns that
    /// producer's eager flushes into local no-ops.
    pub fn set_page_home(&self, page: usize, home: usize) -> bool {
        assert!(home < self.nprocs(), "home {home} out of range");
        self.state.lock().set_home(page, home)
    }

    /// Decision side of coordinated home placement: filter the `(page,
    /// producer)` `candidates` — asked for only where a release delivers
    /// pages to homes (HLRC; otherwise there is nothing to adopt) —
    /// through the no-notice guard, additionally refusing pages that are
    /// locally dirty, whose diffs the next release will still send to
    /// the *old* home, and private pages, and install the survivors.
    /// Returns the installed list, which the caller must deliver to
    /// every other node for [`Tmk::install_page_homes`] verbatim. Only
    /// meaningful at a point where this node's interval view is
    /// cluster-complete (the SPF master at fork time: all workers are
    /// parked in their dispatch wait, so nothing is in flight).
    pub fn adopt_page_homes(
        &self,
        candidates: impl FnOnce() -> Vec<(usize, usize)>,
    ) -> Vec<(usize, usize)> {
        let mut homes = self.cfg.protocol.home_candidates(candidates);
        let mut st = self.state.lock();
        homes.retain(|&(page, home)| {
            !st.is_dirty(page) && st.owner_elsewhere(page).is_none() && st.set_home(page, home)
        });
        homes
    }

    /// Apply home overrides decided elsewhere (the master's fork-time
    /// [`Tmk::adopt_page_homes`], delivered in the dispatch departure).
    /// Unconditional: the decision point is causally complete even when
    /// this node's own view already contains newer intervals — e.g. the
    /// master's post-body interval leaking into the same departure — so
    /// re-checking the guard here could diverge from the decision.
    pub fn install_page_homes(&self, homes: &[(usize, usize)]) {
        if !homes.is_empty() {
            self.state.lock().install_homes(homes);
        }
    }

    /// Derived privatization, at one loop boundary on every node: make each
    /// `(page, owner)` private to `owner` or (`None`) shared again.
    pub fn privatize(&self, changes: &[(usize, Option<usize>)]) {
        if changes.is_empty() {
            return;
        }
        let mut st = self.state.lock();
        for &(page, owner) in changes {
            let len = st.privacy.len().max(page + 1);
            st.privacy.resize(len, Privacy::Shared);
            st.end_owned(page);
            st.privacy[page] = match (owner, st.privacy[page]) {
                (Some(q), _) => Privacy::Private(q),
                (None, Privacy::Private(q)) => Privacy::Stale(q),
                (None, now) => now,
            };
        }
        let granted = changes.iter().any(|&(_, owner)| owner.is_some());
        self.privatized.set(self.privatized.get() || granted);
    }

    /// Release-side publication: create the interval covering all dirty
    /// pages and send what the protocol sends at a release. Called at
    /// every rendezvous (barrier, fork, join, worker arrival), lock
    /// release and broadcast root.
    fn publish(&self) {
        let _s = self.node.trace_span(SpanKind::Publish, 0);
        self.cfg.protocol.on_release(self);
    }

    // ------------------------------------------------------------------
    // Shared-memory access (the simulated VM layer)
    // ------------------------------------------------------------------

    /// Open a read view of `range` (global element indices). Invalidated
    /// pages in the range fault: missing diffs are fetched from their
    /// writers and applied, with all costs charged as the paper describes.
    /// The view is a window onto the page frames and must be dropped
    /// before this node's next consistency action. While it is held,
    /// views of other arrays open freely; for a second view of the same
    /// array see "Invariants" in [`crate::page`] — open the view over
    /// both ranges first, or copy this one out and drop it.
    pub fn read(&self, arr: SharedArray, range: Range<usize>) -> ReadView<'_> {
        ReadView(self.open(arr, range, false))
    }

    /// Open a write view of `range`. Pages are made consistent first (a
    /// write fault fetches the current content, like the original system),
    /// then write-enabled: a twin is saved per page for later diffing.
    /// Stores through the view land in the page frames directly; its
    /// range may overlap no other open view, and like a read view it
    /// pins its extent (see [`Tmk::read`]).
    pub fn write(&self, arr: SharedArray, range: Range<usize>) -> WriteView<'_> {
        WriteView(self.open(arr, range, true))
    }

    /// Fault `range` in and register the view in the section that did.
    fn open(&self, arr: SharedArray, range: Range<usize>, write: bool) -> Window<'_> {
        let (wlo, whi) = self.word_bounds(arr, &range);
        if cfg!(debug_assertions) && wlo < whi {
            if let Some(fence) = &*self.fence.borrow() {
                fence.check(arr, &range, write);
            }
            assert!(
                !self.deferred.get() || self.body.get().is_some(),
                "the master opens words {range:?} of the array at page {} outside a loop body \
                 while its last fork is un-joined: sequential code must reach the DSM through \
                 the master's handle, which joins first",
                arr.first_page
            );
        }
        if self.privatized.get() && wlo < whi {
            self.fetch_from_owners(arr, &range, wlo, whi);
        }
        let mut st = self.fault_range(wlo, whi, write);
        Window::open(&self.state, &mut st, wlo, whi, range.start, write)
    }

    /// Fetch pages of `[wlo, whi)` private (or stale) elsewhere from owners.
    fn fetch_from_owners(&self, arr: SharedArray, range: &Range<usize>, wlo: usize, whi: usize) {
        let (n, pw) = (self.nprocs(), self.cfg.page_words);
        let sc = &mut *self.scratch.borrow_mut();
        let (by_owner, outstanding) = (&mut sc.by_home, &mut sc.outstanding);
        let mut st = self.state.lock();
        for p in wlo / pw..(whi - 1) / pw + 1 {
            let Some((q, private)) = st.owner_elsewhere(p) else {
                continue;
            };
            if let (true, Some(id)) = (private && cfg!(debug_assertions), self.body.get()) {
                let at = arr.first_page;
                panic!(
                    "loop {id} opens words {range:?} of the array at page {at}, whose page {p} \
                        is private to node {q}"
                );
            }
            st.privacy[p] = Privacy::Shared;
            by_owner[q].push(p);
        }
        drop(st);
        let encode = protocol::encode_owner_fetch;
        self.send_requests(by_owner, true, MsgKind::PageReq, outstanding, encode);
        let resps = &mut sc.responses;
        self.await_responses(outstanding, tag::PAGE_RESP, |_, pkt| resps.push(pkt));
        let (mut st, mut us) = (self.state.lock(), 0.0);
        for pkt in resps.drain(..) {
            for e in protocol::decode_page_resp(&mut WordReader::new(&pkt.payload), n, pw) {
                if st.frames.dominated_by(e.page, e.applied()) {
                    us += st.install(&e.span(), self.node.cost());
                }
            }
        }
        drop(st);
        self.charge_apply(us);
    }

    /// Mark loop `body`'s body running here (`None` between bodies); with
    /// debug assertions its views panic outside `fence` — the body's
    /// descriptor — or on a page private to another node. Returns the
    /// fence it replaces, whose buffers the caller may fill again.
    pub fn fence_views(&self, body: Option<usize>, fence: Option<ViewFence>) -> Option<ViewFence> {
        self.body.set(body);
        self.fence.replace(fence)
    }

    /// Invariant 3 of [`crate::page`]: no view may be open across the
    /// consistency action `what`.
    fn quiescent(&self, what: &str) {
        self.state.lock().frames.assert_quiescent(what);
    }

    /// Read a single element.
    pub fn read_one(&self, arr: SharedArray, i: usize) -> f64 {
        self.read(arr, i..i + 1)[i]
    }

    /// Write a single element.
    pub fn write_one(&self, arr: SharedArray, i: usize, v: f64) {
        let mut w = self.write(arr, i..i + 1);
        w[i] = v;
    }

    fn word_bounds(&self, arr: SharedArray, range: &Range<usize>) -> (usize, usize) {
        assert!(
            range.start <= range.end && range.end <= arr.len,
            "view {range:?} out of bounds for array of {}",
            arr.len
        );
        let base = arr.first_page * self.cfg.page_words;
        (base + range.start, base + range.end)
    }

    /// Global page ids covered by `range` of `arr` (empty for an empty
    /// range). The compiler–runtime interface uses this to turn regular
    /// sections into page sets for validates and pushes.
    pub fn page_span(&self, arr: SharedArray, range: &Range<usize>) -> Range<usize> {
        let (wlo, whi) = self.word_bounds(arr, range);
        if wlo == whi {
            return 0..0;
        }
        let pw = self.cfg.page_words;
        wlo / pw..(whi - 1) / pw + 1
    }

    /// CRI `Validate`, before loop `loop_id`'s body runs here: make every
    /// page of `pages` — sorted, disjoint runs of global page ids, which
    /// the CRI hint engine computes once per loop and replays at every
    /// dispatch — consistent up front, with **one** access fault and
    /// **one** request round trip per writer (or home) for the whole
    /// phase, instead of one of each per page as the body's views would
    /// take (the compiler-described counterpart of
    /// [`TmkConfig::aggregation`]); then write-enable the pages the body
    /// declared written, two sets apart. Returns the number of pages
    /// fetched. `sections` is the number of sections the pages came from
    /// (the `Validate` trace span's); with none, nothing is fetched.
    ///
    /// * `write_all` (`WRITE_ALL`): the body stores every word of these
    ///   pages before it reads any. The hint engine leaves them out of
    ///   `pages` and its producers' pushes; the body's first write view
    ///   over such a page fetches nothing and takes no fault and no
    ///   twin, and the release publishes the page whole. With debug
    ///   assertions the release panics on a word the body left unstored,
    ///   and a read view over the page before its write panics too
    ///   (without, it faults as usual).
    /// * `written` (`WRITE`, `READ&WRITE`): the body writes part of these
    ///   pages, or reads them first; they are validated as any other.
    ///   The body's first write view over such a page takes its twin,
    ///   charged `twin_us`, but no fault — none is charged or counted.
    ///
    /// Arming ends at this node's next release, or where the next body of
    /// a fused dispatch arms its own pages.
    pub fn validate(
        &self,
        loop_id: usize,
        sections: usize,
        pages: &[Range<usize>],
        write_all: &[Range<usize>],
        written: &[Range<usize>],
    ) -> u64 {
        let mut missing = 0;
        if sections > 0 {
            self.quiescent("validate");
            let _s = self.node.trace_span(SpanKind::Validate, sections as u32);
            let mut scratch = self.scratch.borrow_mut();
            let sc = &mut *scratch;
            let miss = Miss {
                runs: pages,
                aggregated: true,
                validate: true,
                write: false,
                words: 0..0,
            };
            missing = self.cfg.protocol.resolve_miss(self, sc, &miss);
            if !sc.entries.is_empty() {
                let st = &mut self.state.lock();
                let us = apply_fetched(st, &mut sc.entries, &[], self.node.cost());
                self.charge_apply(us);
            }
        }
        if !write_all.is_empty() || !written.is_empty() {
            self.state.lock().arm(loop_id, write_all, written);
        }
        missing
    }

    /// Phase 1 of a miss, one section: count the invalid pages — `plan`
    /// does ([`DsmState::faults_on`]), while it plans their fetch — and
    /// take the access faults: one per invalid page, or one for all of
    /// them when the miss is aggregated.
    pub(crate) fn plan_miss(
        &self,
        miss: &Miss<'_>,
        plan: impl FnOnce(&mut DsmState) -> u64,
    ) -> u64 {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        if miss.validate {
            st.stats.validates += 1;
        } else {
            // The view needs its pages side by side: one extent under the
            // whole range (a merge the first time, a lookup afterwards).
            // A write-all body's first view of a page it overwrites makes
            // the page valid before `plan` looks.
            let run = &miss.runs[0];
            st.frames.cover(run.start, run.end - 1);
            st.open_armed(run.clone(), miss.write);
        }
        let invalid = plan(st);
        if miss.validate {
            st.stats.validate_pages += invalid;
        }
        let faults = if miss.aggregated {
            u64::from(invalid > 0)
        } else {
            invalid
        };
        st.stats.faults += faults;
        drop(guard);
        self.node
            .advance(faults as f64 * self.node.cost().page_fault_us);
        invalid
    }

    /// Phase 2 of a miss, first half: send the requests of `groups` (what
    /// to ask of each node), destinations ascending, one per destination
    /// when `aggregated`, else one per item, and note each in
    /// `outstanding`. The groups are left empty.
    pub(crate) fn send_requests<T>(
        &self,
        groups: &mut [Vec<T>],
        aggregated: bool,
        kind: MsgKind,
        outstanding: &mut Vec<(usize, u32)>,
        encode: impl Fn(u32, &[T]) -> Vec<u64>,
    ) {
        for (dst, items) in groups.iter_mut().enumerate() {
            let per_req = if aggregated { items.len() } else { 1 };
            for items in items.chunks(per_req.max(1)) {
                let id = self.req_seq.get();
                self.req_seq.set(id.wrapping_add(1));
                self.node
                    .send_to_port(dst, Port::Service, 0, kind, encode(id, items));
                outstanding.push((dst, id));
            }
            items.clear();
        }
    }

    /// Phase 2 of a miss, second half: await the response to every
    /// request of `outstanding`, in the order they were sent, and hand
    /// each to `land` with the node it came from.
    pub(crate) fn await_responses(
        &self,
        outstanding: &mut Vec<(usize, u32)>,
        resp_tag: u32,
        mut land: impl FnMut(usize, sp2sim::Packet),
    ) {
        for (dst, req_id) in outstanding.drain(..) {
            let t = resp_tag | (req_id & 0xFFFF);
            let pkt = self.node.recv_match(|p| p.src == dst && p.tag == t);
            land(dst, pkt);
        }
    }

    /// Charge the time of applying fetched or pushed data, as its own
    /// trace span.
    pub(crate) fn charge_apply(&self, us: f64) {
        if us > 0.0 {
            let _a = self.node.trace_span(SpanKind::DiffApply, 0);
            self.node.advance(us);
        }
    }

    /// The fault engine: make global words `[wlo, whi)` consistent and
    /// optionally write-enable their pages. Returns the state still
    /// locked, so the caller registers its view in the same section
    /// that write-enabled the pages: under no schedule can a service
    /// request slip between the published-image snapshot and the
    /// view's registration (invariant 4 of [`crate::page`]).
    fn fault_range(&self, wlo: usize, whi: usize, write: bool) -> StateGuard<'_, DsmState> {
        if wlo == whi {
            return self.state.lock();
        }
        let pw = self.cfg.page_words;
        let cost = self.node.cost();
        let (p0, p1) = (wlo / pw, (whi - 1) / pw);
        let _s = self.node.trace_span(SpanKind::Fault, p0 as u32);

        // Phases 1 and 2: find the pages a write notice invalidates and
        // fetch what makes them consistent — the protocol's business.
        let mut scratch = self.scratch.borrow_mut();
        let sc = &mut *scratch;
        let run = p0..p1 + 1;
        let miss = Miss {
            runs: std::slice::from_ref(&run),
            aggregated: self.cfg.aggregation,
            validate: false,
            write,
            words: wlo..whi,
        };
        self.cfg.protocol.resolve_miss(self, sc, &miss);

        // Phase 3: apply in (lamport, writer) order — a linear extension
        // of happens-before — then write-enable.
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let applied = apply_fetched(st, &mut sc.entries, &[], cost);
        debug_assert!(
            (p0..=p1).all(|p| {
                let words = wlo.max(p * pw) - p * pw..whi.min((p + 1) * pw) - p * pw;
                st.holes_under(p, words).next().is_none()
            }),
            "a view's fault filled every hole under it"
        );
        let (mut us, mut faulted) = (applied, 0.0);
        if write {
            for p in p0..=p1 {
                if st.write_private(p) {
                    continue;
                }
                // A page without a twin takes a write fault: the twin is
                // saved for later diffing, in a pooled buffer when the
                // arena has one. Re-dirtying a twinned page whose
                // un-materialized diff range is still open snapshots the
                // published image instead, before this epoch's writes
                // land, so a `freeze` the service loop runs whenever the
                // schedule lets it serves exactly the flushed content — host
                // bookkeeping only: the simulated fault already paid for
                // this page, so no virtual time charge.
                let diff_open = st.pages.get(p).is_some_and(|r| r.diffs.open.is_some());
                let (scratch, stats) = (&mut st.scratch, &mut st.stats);
                let twinned = st
                    .frames
                    .write_enable(p, diff_open, |words| scratch.take_copy(words, stats));
                // A validated write's page was write-enabled by the
                // body's validate: its twin is made here, at the first
                // store, but no fault is taken.
                let validated = st.first_validated_write(p);
                if twinned {
                    let fault = if validated { 0.0 } else { cost.page_fault_us };
                    us += fault + cost.twin_us;
                    faulted += fault + cost.twin_us;
                    st.stats.faults += u64::from(!validated);
                    st.stats.twins += 1;
                }
                st.mark_dirty(p);
            }
        }
        // The write faults are this span's own time, the applied diffs
        // the `DiffApply` span's; the clock ends where one charge of both
        // would have left it.
        let end = sp2sim::VTime(self.node.now().us() + us);
        self.node.advance(faulted);
        if applied > 0.0 {
            let _a = self.node.trace_span(SpanKind::DiffApply, 0);
            self.node.advance_to(end);
        }
        guard
    }

    // ------------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------------

    /// Global barrier (`Tmk_barrier`). Costs `2 (n - 1)` messages: all
    /// arrivals carry this node's new intervals to the manager (node 0),
    /// the departures carry back every interval the node has not seen.
    pub fn barrier(&self, _id: u32) {
        self.arrive(true);
    }

    /// Arrive at a rendezvous — a barrier, or a worker's fork-join epoch
    /// — and wait for its departure: publish, send the registered pushes,
    /// then this node's clock and the intervals it has not yet reported,
    /// encoded from the state where they live, under one lock. Returns a
    /// fork's control words, where the departure landed — `None` for a
    /// barrier or the master's shutdown.
    fn arrive(&self, barrier: bool) -> Option<protocol::LoopControl> {
        let (counter, bit, what) = match barrier {
            true => (&self.barrier_epoch, protocol::BARRIER_EPOCH_BIT, "barrier"),
            false => (&self.fork_epoch, 0, "worker arrival"),
        };
        let (opcode, span, dep_tag) = match barrier {
            true => (op::BARRIER_ARRIVE, SpanKind::BarrierWait, tag::BARRIER_DEP),
            false => (op::WORKER_ARRIVE, SpanKind::ForkWait, tag::FORK_DEP),
        };
        self.quiescent(what);
        let e = counter.get();
        counter.set(e + 1);
        let wait = self.node.trace_span(span, (e & 0xFFFF) as u32);
        self.publish();
        let push_counts = self.do_pushes(None, |_| ());
        let payload = {
            let mut st = self.state.lock();
            let unreported = st.take_unreported();
            let (vc, log) = (&st.vc, &st.log[st.me][unreported]);
            protocol::encode_arrival(opcode, e | bit, st.me, &push_counts, vc, log)
        };
        self.node
            .send_to_port(0, Port::Service, 0, MsgKind::BarrierArrive, payload);
        let t = dep_tag | (e & 0xFFFF) as u32;
        let pkt = self.node.recv_match(|p| p.tag == t);
        let msg = Landed::new(pkt.payload);
        let dep = protocol::decode_departure(&msg);
        let ctl = (!barrier && dep.flag_bits & flags::SHUTDOWN == 0).then(|| dep.control());
        let (intervals, floor, pushes) = (dep.intervals, dep.min_vc, dep.expected_push);
        self.depart(wait, Some(intervals), barrier, floor, pushes);
        ctl
    }

    /// The tail of every rendezvous, once the departure is in: integrate
    /// its intervals (a join has none — the manager's service loop
    /// integrated the arrivals into this very state — and enters the
    /// state only for a floor), let the protocol prune at the floor and
    /// consume the pushes. That ends the `wait` span and the trace epoch.
    fn depart(
        &self,
        wait: TraceSpanGuard<'_>,
        intervals: Option<Intervals>,
        barrier: bool,
        floor: &[u64],
        pushes: u64,
    ) {
        if intervals.is_some() || !floor.is_empty() {
            let mut st = self.state.lock();
            for iv in intervals.into_iter().flatten() {
                st.integrate_interval(iv, self.node.cost());
            }
            st.stats.barriers += u64::from(barrier);
            self.cfg.protocol.on_rendezvous(&mut st, floor);
        }
        self.receive_pushes(pushes, None);
        drop(wait);
        // The epoch-boundary marker: every span of the epoch that just
        // completed has already ended.
        if self.node.tracing() {
            let e = self.trace_epoch.get();
            self.trace_epoch.set(e + 1);
            self.node.trace_epoch(e);
        }
    }

    /// Acquire a lock (`Tmk_lock_acquire`). Managed by node `lock % n`;
    /// the request is forwarded to the last holder, whose grant carries
    /// the write notices the acquirer has not seen.
    pub fn acquire(&self, lock: u32) {
        self.quiescent("lock acquire");
        let _s = self.node.trace_span(SpanKind::LockWait, lock);
        let me = self.proc_id();
        let mgr = lock as usize % self.nprocs();
        let t0 = self.node.now();
        {
            let mut st = self.state.lock();
            st.stats.lock_acquires += 1;
            st.lock_entry(lock).prof.acquires += 1;
            let dst = if mgr == me {
                st.redirect(lock, me)
            } else {
                mgr
            };
            if dst == me {
                // Manager-local hit: no one requested the lock since our
                // registration, so the token is (still) ours.
                let lk = st.lock_entry(lock);
                debug_assert!(!lk.held, "recursive acquire");
                debug_assert!(lk.has_token, "registered owner keeps the token");
                lk.held = true;
                lk.prof.local_hits += 1;
                lk.prof.record_rest();
                return;
            }
            // Sent under the lock that read the directory entry: the
            // manager's service loop forwards requests under it too
            // (`service::handle_lock_req`), so the requests the manager
            // node directs at one holder reach it in the order the entry
            // serialized them. Were our request to overtake a request of
            // the holder's own, forwarded back to it a moment earlier,
            // the holder would grant us the token and then find its own
            // request "self-directed" without one.
            let payload = protocol::encode_lock_req(lock, me, &st.vc);
            self.node
                .send_to_port(dst, Port::Service, 0, MsgKind::LockReq, payload);
        }
        let t = tag::LOCK_GRANT | lock;
        let pkt = self.node.recv_match(|p| p.tag == t);
        let msg = Landed::new(pkt.payload);
        let intervals = Intervals::window(&msg, &mut msg.reader());
        let mut st = self.state.lock();
        let wait_us = self.node.now() - t0;
        for iv in intervals {
            st.integrate_interval(iv, self.node.cost());
        }
        let lk = st.lock_entry(lock);
        lk.prof.wait_us += wait_us;
        lk.has_token = true;
        lk.held = true;
    }

    /// Release a lock (`Tmk_lock_release`). Performs the release-side
    /// flush; communicates only if a request is already queued here.
    pub fn release(&self, lock: u32) {
        self.quiescent("lock release");
        self.publish();
        let grant = {
            let mut st = self.state.lock();
            let lk = st.lock_entry(lock);
            debug_assert!(lk.held, "release without holding");
            lk.held = false;
            lk.release_vt = self.node.now();
            // The token travels with the grant.
            let next = lk.queue.pop_front();
            next.map(|(dst, vc)| (dst, st.grant(lock, &vc)))
        };
        if let Some((dst, payload)) = grant {
            let t = tag::LOCK_GRANT | lock;
            self.node
                .send_to_port(dst, Port::App, t, MsgKind::LockGrant, payload);
        }
    }

    // ------------------------------------------------------------------
    // Fork-join (the improved compiler/run-time interface of §2.3)
    // ------------------------------------------------------------------

    /// Master: dispatch a parallel loop. The one-to-all departure carries
    /// `ctl` (the encapsulated subroutine id and its arguments) along with
    /// consistency information: the write notices of the intervals before
    /// the fork, never of the one this node's body makes, which the next
    /// fork carries — `n - 1` messages. A deferred join
    /// ([`Tmk::defer_join`]) completes first, pushing first; the pushes
    /// it announces ride this departure beside the fork's own, and the
    /// pushes addressed to this node are taken once the fork is out,
    /// before the master's own body.
    pub fn fork(&self, ctl: &[u64]) {
        self.fork_with_flags(ctl, 0);
    }

    fn fork_with_flags(&self, ctl: &[u64], flag_bits: u64) {
        assert_eq!(self.proc_id(), 0, "only the master forks");
        self.settle_join(true);
        self.quiescent("fork");
        let e = self.fork_epoch.get();
        self.fork_epoch.set(e + 1);
        self.publish();
        // The fork carries this node's clock as it forks: the departures
        // announce the intervals before the fork, and the one this node's
        // body makes while the workers arrive goes with the next
        // rendezvous, as every other node's does.
        let mut w = WordWriter::with_capacity(3 + 2 * self.nprocs() + ctl.len());
        {
            let mut st = self.state.lock();
            st.stats.forks += 1;
            protocol::put_fork_head(&mut w, e, flag_bits, &st.vc);
        }
        // Registered pushes ride the dispatch: the workers learn how many
        // to expect from the fork departure, the join's before the fork
        // included. A push down the tree goes out after the fork, so the
        // service sends the departures while the tree fills.
        let early = std::mem::take(&mut *self.early_counts.borrow_mut());
        self.do_pushes(None, |push_counts| {
            let count = |counts: &[u64], t| counts.get(t).copied().unwrap_or(0);
            for t in 0..self.nprocs() {
                w.put(count(&early, t) + count(push_counts, t));
            }
            w.put_words(ctl);
            self.node
                .send_to_port(0, Port::Service, 0, MsgKind::Control, w.finish());
        });
        self.receive_pushes(self.intake.take(), None);
    }

    /// Master: wait for all workers to finish the current loop — the
    /// all-to-one arrival half, `n - 1` messages (sent by the workers) —
    /// and take the pushes they sent this node.
    pub fn join(&self) {
        self.join_then(false);
    }

    /// Master: leave the current loop's join to the master's next action,
    /// [`Tmk::settle_join`] — a fork settles it itself. Until then, with
    /// debug assertions, a view opened outside a loop body panics: it
    /// would read before the workers' writes are in.
    pub fn defer_join(&self) {
        assert_eq!(self.proc_id(), 0, "only the master joins");
        self.deferred.set(true);
    }

    /// Master: complete a join left by [`Tmk::defer_join`], if one is.
    /// With `fork_follows` — nothing but a fork comes next — the join
    /// sends the pushes its loop registered before it waits, to go with
    /// the workers' own instead of after them, and leaves those to this
    /// node to the fork; otherwise it is [`Tmk::join`].
    pub fn settle_join(&self, fork_follows: bool) {
        if self.deferred.get() {
            self.join_then(fork_follows);
        }
    }

    fn join_then(&self, fork_follows: bool) {
        assert_eq!(self.proc_id(), 0, "only the master joins");
        self.quiescent("join");
        self.deferred.set(false);
        let e = self.fork_epoch.get();
        let wait = self
            .node
            .trace_span(SpanKind::JoinWait, (e & 0xFFFF) as u32);
        self.publish();
        if fork_follows {
            // Announced by the fork (the counts go with it): the workers
            // take these after its departure.
            *self.early_counts.borrow_mut() = self.do_pushes(None, |_| ());
        }
        let mut w = WordWriter::with_capacity(2);
        w.put(op::MASTER_JOIN).put(e);
        self.node
            .send_to_port(0, Port::Service, 0, MsgKind::Control, w.finish());
        let t = tag::JOIN_DEP | (e & 0xFFFF) as u32;
        let pkt = self.node.recv_match(|p| p.tag == t);
        // Interval integration happened inside the manager service at
        // epoch completion (our own state); only the workers' pushes to
        // the master remain to be consumed.
        let mut r = WordReader::new(&pkt.payload);
        let _epoch = r.get();
        let expected_push = r.get();
        let floor = protocol::decode_vc_words(&mut r);
        // Before a fork, the pushes to this node wait for it.
        let pushes = if fork_follows {
            self.intake.set(expected_push);
            0
        } else {
            expected_push
        };
        self.depart(wait, None, false, floor, pushes);
    }

    /// Worker: report arrival at the rendezvous and wait for the next
    /// loop dispatch. Returns the control words of the dispatched loop,
    /// where the departure landed, or `None` when the master shut the
    /// computation down.
    pub fn worker_wait(&self) -> Option<protocol::LoopControl> {
        assert_ne!(self.proc_id(), 0, "workers only");
        self.arrive(false)
    }

    /// Master: release the workers from their dispatch loop.
    pub fn shutdown_workers(&self) {
        self.fork_with_flags(&[], flags::SHUTDOWN);
    }

    // ------------------------------------------------------------------
    // Extensions (paper §8 / Dwarkadas et al.): push and broadcast
    // ------------------------------------------------------------------

    /// Register `pushes` for this node's next synchronization rendezvous
    /// (barrier arrival, worker arrival, master fork, or a master join
    /// that a fork follows) — but for the entries to this node and those
    /// its release delivers (under HLRC, to the page's home, which may
    /// move between two registrations of a list). Returns how many went.
    pub fn push_at_next_sync(&self, pushes: &Pushes) -> u64 {
        if pushes.list.is_empty() && pushes.spans.is_empty() {
            return 0;
        }
        let (me, protocol) = (self.proc_id(), self.cfg.protocol);
        let mut st = self.state.lock();
        let mut pending = std::mem::take(&mut st.pending);
        let delivered = |q, p| q == me || protocol.release_delivers(&st, p, q);
        let mut registered = 0;
        for (q, p, words) in pushes.iter().filter(|&(q, p, _)| !delivered(q, p)) {
            let at = pending.runs.len();
            pending.runs.extend_from_slice(words);
            pending.list.push((q, p, at..pending.runs.len()));
            registered += 1;
        }
        pending.spans.extend_from_slice(&pushes.spans);
        st.pending = pending;
        registered
    }

    /// Send the words `runs` of each array of `words`, which this node
    /// has just rewritten, to `readers` at once, outside any rendezvous:
    /// a **link push**, which a chained dispatch sends between two of its
    /// loop bodies (see the `spf` crate). The writes are published first
    /// and travel as a superseding push ([`Pushes::supersede`]) —
    /// straight to each reader, or down the tree rooted here when every
    /// other node reads them — under `tag::LINK_PUSH`, where no
    /// rendezvous takes them: each reader takes it with
    /// [`Tmk::take_link_push`], knowing without being told that it comes.
    /// No write notice goes with it. A reader's watermarks for the pages
    /// rise to the push's, so the notices it meets at its next rendezvous
    /// find the words already there; the caller promises that no reader
    /// needs any other word of those pages from this node before then,
    /// and that its pages dominate every reader's — a reader panics on
    /// one that does not, which nothing would fetch again in time.
    /// Pushes registered for the next rendezvous stay registered, but for
    /// those of these pages to a reader, which this one delivers.
    pub fn push_link(&self, words: &[(SharedArray, Vec<Range<usize>>)], readers: &[usize]) {
        self.quiescent("link push");
        self.publish();
        let mut link = Pushes::default();
        for (arr, runs) in words {
            for r in runs {
                link.supersede(*arr, r.clone(), self.cfg.page_words);
                for &t in readers {
                    link.whole(t, self.page_span(*arr, r));
                }
            }
        }
        self.do_pushes(Some(&mut link), |_| ());
        let delivered = |t, p| link.list.iter().any(|e| (e.0, e.1) == (t, p));
        let mut st = self.state.lock();
        st.pending.list.retain(|&(t, p, _)| !delivered(t, p));
    }

    /// Take the link push `writer` sends this node ([`Tmk::push_link`])
    /// and install it, before this node's next loop body reads it.
    pub fn take_link_push(&self, writer: usize) {
        self.quiescent("link push");
        self.receive_pushes(1, Some(writer));
    }

    /// Send a push list: the pushes registered for this rendezvous
    /// (called there, after the flush), which it leaves empty, or with
    /// `link` a link push's own ([`Tmk::push_link`]). Returns the
    /// per-destination message counts for the arrival — no vector at all
    /// when the list has no entry, which the encoders write as a zero per
    /// node ([`protocol::put_push_counts`]) — and hands them to
    /// `announce` before the first push is built.
    ///
    /// A push carries the producer's newest frozen diff range per page
    /// and whatever else the protocol's consumers need to use it (see
    /// [`crate::hlrc::push_payload`], [`crate::lrc::push_payload`]).
    /// Targets that get the same pages get the same message, packed
    /// once; when that is every other node, it goes down the binomial
    /// tree rooted here — each forwarder's service passes it on
    /// (`tag::PUSH_TREE`) — wherever that saves this node a send.
    ///
    /// A link push's every page goes, with a range of the interval just
    /// published or not, under `tag::LINK_PUSH`, and the newest interval
    /// stays to push at the next rendezvous.
    fn do_pushes(&self, link: Option<&mut Pushes>, announce: impl FnOnce(&[u64])) -> Vec<u64> {
        let _s = self.node.trace_span(SpanKind::PushSend, 0);
        let (me, n) = (self.proc_id(), self.nprocs());
        let rendezvous = link.is_none();
        let mut pending = Pushes::default();
        let (pushes, last) = {
            let mut st = self.state.lock();
            // A link push's ranges reach the newest interval; a
            // rendezvous's, any interval since the last rendezvous
            // pushes — sequential code that published after a body (the
            // master's, `Master::tmk`) leaves the body's ranges to go.
            let newest = st.vc[me];
            let (pushes, last) = match link {
                Some(link) => (link, newest),
                None => {
                    pending = std::mem::take(&mut st.pending);
                    (&mut pending, std::mem::replace(&mut st.pushed, newest) + 1)
                }
            };
            if pushes.list.is_empty() {
                pushes.clear();
                if rendezvous {
                    st.pending = std::mem::take(pushes);
                }
                drop(st);
                announce(&[]);
                return Vec::new();
            }
            (pushes, last)
        };
        // Group by target, pages ascending; several hinted accesses may
        // name one page. A page's span is the hull of its marks.
        let (entries, words, spans) = (&mut pushes.list, &pushes.runs, &mut pushes.spans);
        entries.sort_unstable_by_key(|&(t, p, ref w)| (t, p, w.start));
        spans.sort_unstable_by_key(|(p, span)| (*p, span.start));
        spans.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1.end = kept.1.end.max(next.1.end);
            }
            same
        });
        // The pages with a range of the last interval to push, by
        // target: each distinct list once, back to back in `pages`, in
        // `lists` as `(its pages, how many targets get it, its message)`
        // — packed at its first target, shared by the rest — and in
        // `order` each target's list. A page's meet is the union of the
        // words every registration of it names, or the whole page when
        // one names it whole, the protocol pushes pages whole or this is
        // a link push.
        let mut scratch = self.scratch.borrow_mut();
        let sc = &mut *scratch;
        let (pages, lists, order) = (&mut sc.push_pages, &mut sc.push_lists, &mut sc.push_order);
        let (meets, meet_words) = (&mut sc.push_meets, &mut sc.push_words);
        let meeting = rendezvous && self.cfg.protocol.pushes_meets();
        let cost = self.node.cost();
        {
            let mut st = self.state.lock();
            for group in entries.chunk_by(|a, b| a.0 == b.0) {
                let (at, words_at) = (pages.len(), meet_words.len());
                for page in group.chunk_by(|a, b| a.1 == b.1) {
                    let p = page[0].1;
                    if rendezvous && !st.has_range_from(p, last) {
                        continue;
                    }
                    pages.push(p);
                    let from = meet_words.len();
                    if meeting && page.iter().all(|r| !r.2.is_empty()) {
                        let runs = page.iter().flat_map(|r| words[r.2.clone()].iter().cloned());
                        meet_words.extend(runs);
                        meet_words[from..].sort_unstable_by_key(|r| r.start);
                        let merged = merge_runs(&mut meet_words[from..]);
                        meet_words.truncate(from + merged);
                        // A page whose range changed no word outside its
                        // meet goes whole, as it would anyway.
                        let keep = &meet_words[from..];
                        st.stats.push_words_read +=
                            keep.iter().map(|r| r.len() as u64).sum::<u64>();
                        if st.range_within(p, last, keep) {
                            meet_words.truncate(from);
                        }
                    }
                    meets.push(from..meet_words.len());
                }
                st.stats.pages_pushed += (pages.len() - at) as u64;
                if pages.len() == at {
                    continue;
                }
                let list = |l: &Range<usize>| {
                    let ms = meets[l.clone()].iter().map(|m| &meet_words[m.clone()]);
                    (&pages[l.clone()], ms)
                };
                let same = |l: &Range<usize>| {
                    let ((a, ma), (b, mb)) = (list(l), list(&(at..pages.len())));
                    a == b && ma.eq(mb)
                };
                let i = match lists.iter().position(|l| same(&l.0)) {
                    Some(i) => {
                        pages.truncate(at);
                        meets.truncate(at);
                        meet_words.truncate(words_at);
                        i
                    }
                    None => {
                        lists.push((at..pages.len(), 0, None));
                        lists.len() - 1
                    }
                };
                lists[i].1 += 1;
                order.push((group[0].0, i));
            }
            // The ranges meets are cut from stay whole here, frozen apart
            // in one batch for the rendezvous: the messages carry cuts.
            let cut = (0..pages.len()).filter(|&i| !meets[i].is_empty());
            st.freeze_all(cut.map(|i| (pages[i], last)), cost, true);
        }
        // Every target gets one message: straight, or — the one list
        // every other node gets, where that saves this node sends — down
        // the tree rooted here.
        let mut counts = vec![0u64; n];
        order.iter().for_each(|&(t, _)| counts[t] += 1);
        let tree = Tree::new(me, n, me);
        let saves = tree.children().count() < n - 1;
        let down_tree = lists.iter().position(|l| l.1 == n - 1 && saves);
        let mut payload = |i: usize| -> Payload {
            let (list, targets, built) = &mut lists[i];
            if let Some(payload) = built {
                return payload.clone();
            }
            // One message for these pages, written in the critical
            // section that freezes the ranges into it.
            let mut us = 0.0;
            let payload = {
                let mut st = self.state.lock();
                let charge = |page_us| us += page_us;
                let list = PushList {
                    pages: &pages[list.clone()],
                    meets: &meets[list.clone()],
                    words: &meet_words[..],
                };
                let protocol = self.cfg.protocol;
                let payload = protocol.push_payload(&mut st, &list, spans, last, cost, charge);
                if meeting {
                    st.count_push_words(&list, spans, last, *targets as u64);
                }
                payload
            };
            self.node.advance(us);
            built.insert(payload).clone()
        };
        let ep = self.node;
        let (straight, tree_tag) = match rendezvous {
            true => (tag::PUSH, tag::PUSH_TREE | me as u32),
            false => (tag::LINK_PUSH | me as u32, tag::LINK_PUSH | me as u32),
        };
        for &(target, i) in order.iter().filter(|&&(_, i)| Some(i) != down_tree) {
            ep.send_to_port(target, Port::App, straight, MsgKind::Push, payload(i));
        }
        // The tree fills after the announcement is out, alongside what it
        // sets off (a fork's departures).
        announce(&counts);
        if let Some(i) = down_tree {
            let (payload, t) = (payload(i), tree_tag);
            for child in tree.children() {
                ep.send_to_port(child, Port::Service, t, MsgKind::Push, payload.clone());
            }
        }
        pages.clear();
        lists.clear();
        order.clear();
        meets.clear();
        meet_words.clear();
        // Only the application fiber registers pushes: hand the buffers
        // back for the next phase's registrations.
        if rendezvous {
            pending.clear();
            self.state.lock().pending = pending;
        }
        counts
    }

    /// Receive and apply `expected` push messages (called at a
    /// rendezvous, after the departure; by a fork, for the join that
    /// went before it) — or, with `link`, the one link push that node
    /// sent ([`Tmk::take_link_push`]).
    fn receive_pushes(&self, expected: u64, link: Option<usize>) {
        if expected == 0 {
            return;
        }
        let _s = self.node.trace_span(SpanKind::PushRecv, expected as u32);
        let cost = self.node.cost();
        let (n, pw) = (self.nprocs(), self.cfg.page_words);
        // The messages stay where they landed until the last page is
        // installed: the diffs are windows onto them, the page copies
        // and spans borrowed walks over their tails.
        let pushes: Vec<(usize, Landed)> = (0..expected)
            .map(|_| {
                let tree = |t: u32| t & tag::BASE == tag::PUSH_TREE;
                let pkt = self.node.recv_match(|p| match link {
                    Some(w) => p.tag == tag::LINK_PUSH | w as u32,
                    None => p.tag == tag::PUSH || tree(p.tag),
                });
                // Handed on down a tree, or a link push, a push names its
                // pusher in its tag.
                let writer = match pkt.tag == tag::PUSH {
                    true => pkt.src,
                    false => (pkt.tag & !tag::BASE) as usize,
                };
                (writer, Landed::new(pkt.payload))
            })
            .collect();
        let mut scratch = self.scratch.borrow_mut();
        let all = &mut scratch.entries;
        // Page copies (HLRC's) and superseding spans (LRC's) alike: words
        // of a page with the watermarks they reflect.
        let mut copies: Vec<(usize, protocol::SpanEntry)> = Vec::new();
        let mut holes: Vec<(usize, PageId, u32, &[u64])> = Vec::new();
        for &(writer, ref msg) in &pushes {
            let mut r = msg.reader();
            let mode = r.get();
            all.extend(protocol::decode_diff_entries(msg, &mut r).map(|e| (writer, e)));
            if mode & protocol::PUSH_MODE_PAGES != 0 {
                let pages = protocol::decode_page_resp(&mut r, n, pw);
                copies.extend(pages.map(|e| (writer, e.span())));
            }
            if mode & protocol::PUSH_MODE_SPANS != 0 {
                let spans = protocol::decode_span_entries(&mut r, n, pw);
                copies.extend(spans.map(|e| (writer, e)));
            }
            if mode & protocol::PUSH_MODE_MEETS != 0 {
                for (e, h) in protocol::decode_meet_entries(msg, &mut r, pw) {
                    holes.push((writer, e.page, e.range.hi, h));
                    all.push((writer, e));
                }
            }
        }
        holes.sort_unstable_by_key(|h| (h.0, h.1, h.2));
        // Deterministic install order for the copies, independent of
        // message arrival order (a seeded schedule may deliver pushes in
        // any order).
        copies.sort_by_key(|(src, e)| (e.page, *src));
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let mut us = apply_fetched(st, all, &holes, cost);
        // Install a copy only where the pushed watermarks dominate ours
        // componentwise — after the diff merge above, so a
        // concurrent-writer page whose diffs both applied simply drops
        // both (now dominated) copies. A stale push (we already hold
        // something it lacks) is dropped and the page left for the fault
        // path.
        //
        // Unlike the home-fetch path (which serves at *our* watermarks
        // and may run mid-epoch), pushes arrive at a rendezvous: we just
        // published — under the protocol that pushes pages, every range
        // that release made is frozen and its twin gone; under the one
        // that pushes spans, the pusher's notice for the page froze ours
        // — so the frame holds nothing of ours that the pushed content
        // would lose.
        // A link push has no fault path behind it: the reader's body runs
        // on its words before any notice could send it there.
        for (_, e) in copies {
            if !st.frames.dominated_by(e.page, e.applied()) {
                assert!(link.is_none(), "a link push of page {} is stale", e.page);
                continue;
            }
            #[cfg(debug_assertions)]
            {
                let frame = st.frames.frame_mut(e.page);
                assert!(
                    !frame.meta.dirty && frame.meta.twin.is_none(),
                    "pushed copies are consumed after a release that froze every range"
                );
                // A span short of its page, not a page copy, has words to check.
                if e.words.len() < pw {
                    protocol::shadow::check(&e, frame.data, st.holes.get(&e.page));
                }
            }
            us += st.install(&e, cost);
        }
        drop(guard);
        self.charge_apply(us);
    }

    /// CRI direct reduction: combine `vals` elementwise across all nodes
    /// along a binomial tree and return the totals everywhere. Collective
    /// — every node must call it at the same point. `2 (n - 1)` messages
    /// replace the lock-acquire/diff/release chains of the SPF
    /// lock-and-shared-page reduction. The combine order is fixed by the
    /// tree, so results are deterministic (though not bitwise equal to a
    /// sequential left fold — floating-point addition is not associative).
    pub fn reduce(&self, vals: &[f64]) -> Vec<f64> {
        self.reduce_op(vals, ReduceOp::Sum)
    }

    /// [`Tmk::reduce`] with an explicit combining operator. Min/Max are
    /// exact and order-insensitive, so a tree-combined comparison
    /// reduction is bitwise identical to the lock-folded one it
    /// replaces; Sum stays deterministic but tree-ordered.
    pub fn reduce_op(&self, vals: &[f64], op: ReduceOp) -> Vec<f64> {
        let me = self.proc_id();
        let seq = self.reduce_seq.get();
        let _s = self.node.trace_span(SpanKind::ReduceWait, seq & 0xFFFF);
        self.reduce_seq.set(seq.wrapping_add(1));
        let t16 = seq & 0xFFFF;
        let completed = {
            let mut st = self.state.lock();
            st.stats.direct_reduces += 1;
            st.reduce_contribute(seq as u64, None, vals.to_vec(), op)
        };
        let total = match completed {
            Some(total) if me == 0 => total,
            completed => {
                // Our subtree may be complete already (leaf node, or every
                // child part beat our deposit): forward from the
                // application side. The root's service completes the slot
                // when the last child part arrives and upcalls the total to
                // us; every other node gets it from its parent.
                if let Some(sub) = &completed {
                    forward_reduce(self.node, seq, op, sub, self.node.now(), None);
                }
                let t = match me {
                    0 => tag::REDUCE_DONE,
                    _ => tag::REDUCE_RESULT,
                } | t16;
                let pkt = self.node.recv_match(|p| p.tag == t);
                protocol::decode_reduce_vals(&mut WordReader::new(&pkt.payload))
            }
        };
        // Distribute the total down the same tree, children ascending,
        // every packet holding the one payload.
        let (t, mut payload) = (tag::REDUCE_RESULT | t16, None);
        for c in Tree::new(me, self.nprocs(), 0).children().rev() {
            let p = payload
                .get_or_insert_with(|| Payload::shared(protocol::encode_reduce_vals(&total)));
            self.node.send(c, t, MsgKind::ReduceResult, p.clone());
        }
        total
    }

    /// CRI windowed **ordered** reduction: node `q` contributes the
    /// element window `layout(q).0` of a conceptual shared vector of
    /// `len` elements and reads back the result range `layout(q).1`.
    /// Element `i` of the reduced vector is the sum of every covering
    /// contribution, folded into +0.0 in **ascending node order**.
    /// Collective: every node must call it at the same point, with the
    /// same `layout`, its own window's values in `vals`. Returns the
    /// caller's result range, its first element first.
    ///
    /// The exchange goes owner to owner: each node sends every peer
    /// exactly the part of its window that peer needs, and receives
    /// from each peer the part of the peer's window it needs. `vals` is
    /// drained once, in ascending element order, into those messages and
    /// the node's own slice, and dropped before anything is sent or
    /// awaited — an iterator that owns the views it reads from closes
    /// them there.
    ///
    /// This is the segmented reduction of an inspector/executor
    /// interaction list (NBF's symmetric force merge): one message per
    /// overlapping `(writer, reader)` pair replaces one demand diff
    /// fetch per overlapping `(reader, writer, page)` triple. Unlike
    /// [`Tmk::reduce`], no subset of windows is ever pre-folded — that
    /// would change the addition grouping — so the result is bitwise
    /// identical to a sequential loop that adds each node's window in
    /// rank order, which is what keeps a hinted program's floating-point
    /// results byte-identical to the unhinted original.
    pub fn reduce_windows(
        &self,
        len: usize,
        mut vals: impl ExactSizeIterator<Item = f64>,
        layout: impl Fn(usize) -> (Range<usize>, Range<usize>),
    ) -> Vec<f64> {
        let (me, n) = (self.proc_id(), self.nprocs());
        let seq = self.window_seq.get();
        self.window_seq.set(seq.wrapping_add(1));
        let t = tag::REDUCE_SLICE | (seq & 0xFFFF);
        let _s = self.node.trace_span(SpanKind::ReduceWait, seq & 0xFFFF);
        self.state.lock().stats.direct_reduces += 1;
        let (window, need) = layout(me);
        debug_assert_eq!(vals.len(), window.len(), "values are not the window");
        debug_assert!(window.end.max(need.end) <= len, "layout exceeds the vector");
        let overlap = |a: &Range<usize>, b: &Range<usize>| a.start.max(b.start)..a.end.min(b.end);
        // Every node's part of our window, ours included, in one pass:
        // segment by segment between the points where a part starts or
        // ends, each segment into the first part that takes it and copied
        // from there into the others.
        let mut parts = std::mem::take(&mut self.scratch.borrow_mut().slices);
        parts.extend((0..n).filter_map(|p| {
            let r = overlap(&window, &layout(p).1);
            (!r.is_empty()).then(|| (p, r.clone(), Vec::with_capacity(r.len())))
        }));
        let mut i = window.start;
        while i < window.end {
            let ends = parts.iter().flat_map(|(_, r, _)| [r.start, r.end]);
            let next = ends.filter(|&b| b > i).fold(window.end, usize::min);
            let seg = vals.by_ref().take(next - i).map(f64::to_bits);
            let mut takers = parts.iter_mut().filter(|(_, r, _)| r.contains(&i));
            match takers.next() {
                None => seg.for_each(drop),
                Some((_, _, first)) => {
                    let at = first.len();
                    first.extend(seg);
                    takers.for_each(|(_, _, words)| words.extend_from_slice(&first[at..]));
                }
            }
            i = next;
        }
        // The iterator, and any views it owns, close before anything is
        // sent or awaited.
        drop(vals);
        let mut own = Vec::new();
        for (p, _, words) in parts.drain(..) {
            if p == me {
                own = words;
            } else {
                self.node
                    .send_to_port(p, Port::App, t, MsgKind::ReducePart, words);
            }
        }
        self.scratch.borrow_mut().slices = parts;
        // Fold our range in rank order, each peer's slice where it landed.
        let mut out = vec![0.0; need.len()];
        for q in 0..n {
            let r = overlap(&layout(q).0, &need);
            if r.is_empty() {
                continue;
            }
            let pkt;
            let words = if q == me {
                &own[..]
            } else {
                pkt = self.node.recv_match(|p| p.src == q && p.tag == t);
                &pkt.payload[..]
            };
            assert_eq!(words.len(), r.len(), "node {q}'s slice is not {r:?}");
            let into = &mut out[r.start - need.start..r.end - need.start];
            for (o, &w) in into.iter_mut().zip(words) {
                *o += f64::from_bits(w);
            }
        }
        out
    }

    /// Broadcast the current content of `range` of `arr` from `root` to
    /// all nodes — the modified-TreadMarks broadcast used by the MGS
    /// hand-optimization (§5.3). The root publishes its writes and packs
    /// the pages once; they go down the binomial tree message passing's
    /// broadcasts walk (`Endpoint::tree_bcast`, one `bcast` message per
    /// edge), and every other node installs them. Collective: every node
    /// must call it at the same point.
    pub fn bcast_pages(&self, root: usize, arr: SharedArray, range: Range<usize>) {
        self.quiescent("page broadcast");
        let seq = self.bcast_seq.get();
        self.bcast_seq.set(seq.wrapping_add(1));
        let t = tag::BCAST | (seq & 0xFFFF);
        let me = self.proc_id();
        let n = self.nprocs();
        // The root spends protocol-service time serializing pages; every
        // other node mostly waits for its parent's forward.
        let _s = self.node.trace_span(
            if me == root {
                SpanKind::PushSend
            } else {
                SpanKind::PushRecv
            },
            seq & 0xFFFF,
        );
        let (wlo, whi) = self.word_bounds(arr, &range);
        let pw = self.cfg.page_words;
        let (p0, p1) = (wlo / pw, (whi - 1) / pw);
        let payload = self
            .node
            .tree_bcast(Tree::new(me, n, root), t, MsgKind::Bcast, || {
                // Publish local writes first so the broadcast content matches
                // the interval state observers are entitled to.
                self.publish();
                let mut w = WordWriter::with_capacity(1 + (p1 - p0 + 1) * (1 + n + pw));
                let st = self.state.lock();
                w.put_usize(p1 - p0 + 1);
                for p in p0..=p1 {
                    let applied = st.frames.applied(p).expect("root owns the pages");
                    let data = st.frames.data(p).expect("root owns the pages");
                    debug_assert!(!st.is_dirty(p), "root must not have open writes");
                    protocol::encode_page_entry(&mut w, p, applied, data);
                }
                w.finish()
            });
        if me == root {
            return;
        }
        let mut st = self.state.lock();
        let mut us = 0.0;
        for e in protocol::decode_page_resp(&mut WordReader::new(&payload), n, pw) {
            debug_assert!(
                st.frames.frame_mut(e.page).meta.twin.is_none(),
                "broadcast onto dirty page"
            );
            us += st.install(&e.span(), self.node.cost());
        }
        drop(st);
        self.node.advance(us);
    }

    // ------------------------------------------------------------------
    // Teardown
    // ------------------------------------------------------------------

    /// Shut this node's DSM down. Performs a final global barrier (so no
    /// node can still need this node's diffs), stops the service loop,
    /// and returns this node's protocol statistics. Every node must call
    /// it; the instance is unusable afterwards.
    pub fn finish(&self) -> DsmStats {
        self.barrier(u32::MAX);
        let stats = self.stats_snapshot();
        self.stop_service();
        stats
    }

    /// Take this node's race-detection provenance log, if
    /// [`TmkConfig::detect_races`] was set. Call after [`Tmk::finish`]
    /// (its final barrier guarantees every interval has been flushed);
    /// the cluster-wide analysis over all nodes' logs is
    /// [`crate::race::detect`].
    pub fn take_race_log(&self) -> Option<crate::race::RaceLog> {
        self.state.lock().race.take()
    }

    /// Take this node's sharing profile (always recorded; see
    /// [`crate::profile`]). Call after [`Tmk::finish`]; pages and locks
    /// come out in ascending id order, a lock where this node acquired it
    /// or handed its token on (every other recording follows an acquire),
    /// so a manager that only forwarded requests reports none. The
    /// cluster-wide view is the
    /// [`SharingProfile::merge_from`](crate::profile::SharingProfile::merge_from)
    /// fold over all nodes.
    pub fn take_sharing(&self) -> crate::profile::SharingProfile {
        let mut guard = self.state.lock();
        let st = &mut *guard;
        let writers = st.notices.writers_mut();
        let pages = (0..st.pages.len().max(writers.len()))
            .filter_map(|page| {
                let mut prof = st
                    .pages
                    .get_mut(page)
                    .map(|row| std::mem::take(&mut row.prof))
                    .unwrap_or_default();
                if let Some(window) = writers.get_mut(page) {
                    std::mem::take(window).fold_into(&mut prof);
                }
                (!prof.is_untouched()).then_some((page, prof))
            })
            .collect();
        let locks = (st.locks.iter_mut())
            .map(|(&lock, lk)| (lock, std::mem::take(&mut lk.prof)))
            .filter(|(_, prof)| prof.acquires > 0 || prof.handoffs > 0)
            .collect();
        crate::profile::SharingProfile { pages, locks }
    }

    /// Stop the protocol service loop: send it the shutdown opcode and
    /// join it. Idempotent (the handle is taken on first call); `finish`
    /// and `Drop` both route through here. Public because the join is
    /// also a synchronization point — once this returns, every service
    /// action the thread performed (counters, `last_bad_opcode`, home
    /// state) is visible to the caller, which tests use instead of
    /// spinning on a snapshot.
    pub fn stop_service(&self) {
        if let Some(handle) = self.svc.take() {
            self.node.send_to_port(
                self.proc_id(),
                Port::Service,
                0,
                MsgKind::Control,
                vec![op::SHUTDOWN],
            );
            self.node.join_service(handle);
        }
    }
}

impl Drop for Tmk<'_> {
    fn drop(&mut self) {
        // `finish` is the orderly path; this is the safety net that keeps
        // a panicking test from leaking the service loop.
        self.stop_service();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ProtocolMode;
    use proptest::prelude::*;
    use sp2sim::{Cluster, ClusterConfig, EngineKind, EventKind, RunOutput};
    use std::fmt::Debug;

    /// Run `f` over `cfg` on `n` nodes under the FIFO schedule and eight
    /// seeded ones — the protocol's unit tests meet preemption whatever
    /// the default schedule is. The per-node values must agree across
    /// all of them; the output returned (traffic, virtual time) is the
    /// FIFO schedule's.
    pub(crate) fn run_cfg<R>(n: usize, cfg: TmkConfig, f: impl Fn(&Tmk) -> R) -> RunOutput<R>
    where
        R: PartialEq + Debug,
    {
        let run = |engine| {
            Cluster::run(ClusterConfig::sp2_on(n, engine), |node| {
                f(&Tmk::new(node, cfg))
            })
        };
        let fifo = run(EngineKind::Sequential);
        for engine in EngineKind::explore(8).skip(1) {
            assert_eq!(run(engine).results, fifo.results, "{engine} disagrees");
        }
        fifo
    }

    fn run<R: PartialEq + Debug>(n: usize, f: impl Fn(&Tmk) -> R) -> RunOutput<R> {
        run_cfg(n, TmkConfig::default(), f)
    }

    #[test]
    fn single_writer_propagates() {
        let out = run(3, |tmk| {
            let a = tmk.malloc_f64(100);
            if tmk.proc_id() == 1 {
                let mut w = tmk.write(a, 10..20);
                for i in 10..20 {
                    w[i] = (i * 2) as f64;
                }
                drop(w);
            }
            tmk.barrier(0);
            let v: Vec<f64> = tmk.read(a, 10..20).slice().to_vec();
            tmk.finish();
            v
        });
        for res in out.results {
            assert_eq!(res, (10..20).map(|i| (i * 2) as f64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn barrier_costs_2n_minus_2_messages() {
        for n in [2usize, 4, 8] {
            let out = run(n, |tmk| {
                tmk.barrier(0);
            });
            assert_eq!(
                out.stats.messages(MsgKind::BarrierArrive)
                    + out.stats.messages(MsgKind::BarrierDepart),
                2 * (n as u64 - 1),
                "n = {n}"
            );
        }
    }

    #[test]
    fn multiple_writers_of_one_page_merge() {
        // Four nodes write disjoint quarters of a single page without any
        // intervening synchronization: the multiple-writer protocol must
        // merge all four diffs at the barrier.
        let out = run(4, |tmk| {
            let a = tmk.malloc_f64(128);
            let me = tmk.proc_id();
            let lo = me * 32;
            let mut w = tmk.write(a, lo..lo + 32);
            for i in lo..lo + 32 {
                w[i] = (1000 * me + i) as f64;
            }
            drop(w);
            tmk.barrier(0);
            let sum: f64 = tmk.read(a, 0..128).slice().iter().sum();
            tmk.finish();
            sum
        });
        let expect: f64 = (0..4)
            .flat_map(|m| (m * 32..m * 32 + 32).map(move |i| (1000 * m + i) as f64))
            .sum();
        for s in out.results {
            assert_eq!(s, expect);
        }
    }

    #[test]
    fn lock_transfers_data_and_order() {
        // A shared counter incremented under a lock by every node.
        for protocol in ProtocolMode::ALL {
            let out = run_cfg(4, TmkConfig::default().with_protocol(protocol), |tmk| {
                let a = tmk.malloc_f64(1);
                for _round in 0..3 {
                    tmk.acquire(7);
                    let cur = tmk.read_one(a, 0);
                    tmk.write_one(a, 0, cur + 1.0);
                    tmk.release(7);
                }
                tmk.barrier(0);
                let v = tmk.read_one(a, 0);
                tmk.finish();
                v
            });
            for v in out.results {
                assert_eq!(v, 12.0, "{protocol}");
            }
        }
    }

    /// One node of [`one_lock_path_takes_every_branch`]: four phases
    /// around lock 0, managed by node 0; returns the counter the lock
    /// protects and this node's sharing profile.
    fn lock_paths(tmk: &Tmk) -> (f64, crate::profile::SharingProfile) {
        let a = tmk.malloc_f64(1);
        let me = tmk.proc_id();
        let bump = || {
            tmk.acquire(0);
            let cur = tmk.read_one(a, 0);
            tmk.write_one(a, 0, cur + 1.0);
            tmk.release(0);
        };
        let phases: [&[usize]; 4] = [&[0], &[1, 2], &[0], &[1, 1]];
        for (e, nodes) in phases.into_iter().enumerate() {
            for _ in nodes.iter().filter(|&&node| node == me) {
                bump();
            }
            tmk.barrier(e as u32);
        }
        let v = tmk.read_one(a, 0);
        tmk.finish();
        (v, tmk.take_sharing())
    }

    #[test]
    fn one_lock_path_takes_every_branch() {
        // On FIFO: the manager's first acquire is a local hit; node 1 is
        // handed the token by the manager's service at once, and node 2's
        // request, forwarded to node 1, waits for its release; the
        // manager's next request is redirected to node 2, which hands the
        // token over at once; node 1 takes it back from the manager, and
        // its second request, forwarded back to it, is a self-grant (a
        // `Control` upcall). A debug build also holds that no packet is
        // left queued when each run ends.
        let cfg = TmkConfig::default();
        let out = run_cfg(3, cfg, |tmk| {
            let (v, prof) = lock_paths(tmk);
            let rows = prof.locks.iter().map(|(lock, l)| (*lock, l.acquires));
            (v, rows.collect::<Vec<_>>())
        });
        assert_eq!(
            out.results,
            [
                (6.0, vec![(0, 2)]),
                (6.0, vec![(0, 3)]),
                (6.0, vec![(0, 1)])
            ]
        );
        let msgs = [MsgKind::LockReq, MsgKind::LockFwd, MsgKind::LockGrant];
        assert_eq!(msgs.map(|k| out.stats.messages(k)), [5, 2, 4]);
        let fifo = Cluster::run(ClusterConfig::sp2_on(3, EngineKind::Sequential), |node| {
            lock_paths(&Tmk::new(node, cfg)).1
        });
        let mut merged = crate::profile::SharingProfile::default();
        for prof in &fifo.results {
            merged.merge_from(prof);
        }
        let [(0, lock)] = &merged.locks[..] else {
            panic!("one lock row expected: {:?}", merged.locks)
        };
        assert_eq!((lock.acquires, lock.local_hits, lock.handoffs), (6, 1, 4));
    }

    #[test]
    fn fork_join_carries_control_and_data() {
        let out = run(4, |tmk| {
            let a = tmk.malloc_f64(64);
            if tmk.proc_id() == 0 {
                // Master: init, dispatch a "loop", collect, read results.
                let mut w = tmk.write(a, 0..32);
                for i in 0..32 {
                    w[i] = i as f64;
                }
                drop(w);
                tmk.fork(&[42, 7]);
                // Master's own chunk: element 0.
                let x = tmk.read_one(a, 0);
                tmk.write_one(a, 32, x + 1.0);
                tmk.join();
                let v: Vec<f64> = tmk.read(a, 32..36).slice().to_vec();
                tmk.shutdown_workers();
                tmk.finish();
                v
            } else {
                let mut got = Vec::new();
                while let Some(ctl) = tmk.worker_wait() {
                    assert_eq!(*ctl, [42, 7]);
                    let me = tmk.proc_id();
                    let x = tmk.read_one(a, me);
                    tmk.write_one(a, 32 + me, x + 1.0);
                    got.push(ctl[0]);
                }
                tmk.finish();
                vec![got.len() as f64]
            }
        });
        assert_eq!(out.results[0], vec![1.0, 2.0, 3.0, 4.0]);
        for r in &out.results[1..] {
            assert_eq!(r, &vec![1.0]);
        }
    }

    #[test]
    fn improved_forkjoin_message_count() {
        // One fork-join cycle: n-1 departures + n-1 arrivals (+ shutdown
        // departures + final-barrier traffic, measured separately).
        let n = 4;
        let out = Cluster::run(ClusterConfig::sp2(n), |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            if tmk.proc_id() == 0 {
                tmk.fork(&[1]);
                tmk.join();
                let snap = node.stats().snapshot();
                tmk.shutdown_workers();
                tmk.finish();
                Some((
                    snap.messages(MsgKind::BarrierArrive),
                    snap.messages(MsgKind::BarrierDepart),
                ))
            } else {
                while tmk.worker_wait().is_some() {}
                tmk.finish();
                None
            }
        });
        let (arr, dep) = out.results[0].unwrap();
        assert_eq!(arr, 2 * (n as u64 - 1)); // startup + post-loop arrivals
        assert_eq!(dep, n as u64 - 1); // one dispatch
    }

    /// Barrier and fork-join epochs side by side at the manager: on 3
    /// nodes, under the FIFO schedule and eight seeded ones, the master
    /// dispatches a body twice, joining each, then shuts the workers
    /// down; every node's body writes its own word, meets the others at
    /// a barrier and reads its neighbour's. Every rendezvous — three
    /// fork-join epochs, three barriers with `finish`'s — costs
    /// `2 (n - 1)` messages, and (debug builds) no packet is left queued.
    #[test]
    fn a_barrier_inside_a_dispatched_body() {
        let n = 3;
        for engine in EngineKind::explore(8) {
            let out = Cluster::run(ClusterConfig::sp2_on(n, engine), |node| {
                let tmk = Tmk::new(node, TmkConfig::default());
                let (a, me) = (tmk.malloc_f64(n), tmk.proc_id());
                let body = |k: u64| {
                    tmk.write_one(a, me, (10 * k) as f64 + me as f64);
                    tmk.barrier(0);
                    tmk.read_one(a, (me + 1) % n)
                };
                let mut read = Vec::new();
                if me == 0 {
                    for k in 0..2 {
                        tmk.fork(&[k]);
                        read.push(body(k));
                        tmk.join();
                    }
                    tmk.shutdown_workers();
                } else {
                    while let Some(ctl) = tmk.worker_wait() {
                        read.push(body(ctl[0]));
                    }
                }
                let stats = tmk.finish();
                (read, stats.barriers, stats.forks)
            });
            for (me, (read, barriers, forks)) in out.results.iter().enumerate() {
                let peer = ((me + 1) % n) as f64;
                assert_eq!(read, &[peer, 10.0 + peer], "{engine}: node {me}");
                let dispatches = if me == 0 { 3 } else { 0 };
                assert_eq!((*barriers, *forks), (3, dispatches), "{engine}: node {me}");
            }
            let arrive = out.stats.messages(MsgKind::BarrierArrive);
            let depart = out.stats.messages(MsgKind::BarrierDepart);
            assert_eq!(arrive + depart, 6 * 2 * (n as u64 - 1), "{engine}");
        }
    }

    #[test]
    fn push_extension_delivers_before_read() {
        let out = run(2, |tmk| {
            let a = tmk.malloc_f64(16);
            if tmk.proc_id() == 0 {
                let mut w = tmk.write(a, 0..16);
                for i in 0..16 {
                    w[i] = 5.0;
                }
                drop(w);
                tmk.push_at_next_sync(Pushes::default().whole(1, tmk.page_span(a, &(0..16))));
            }
            tmk.barrier(0);
            let before = tmk.stats_snapshot().faults;
            let v = tmk.read_one(a, 3);
            let after = tmk.stats_snapshot().faults;
            tmk.finish();
            (v, after - before)
        });
        assert_eq!(out.results[1].0, 5.0);
        // The pushed page must not fault on the consumer.
        assert_eq!(out.results[1].1, 0);
        assert!(out.stats.messages(MsgKind::Push) == 1);
        assert!(out.stats.messages(MsgKind::DiffReq) == 0);
    }

    /// A push every other node gets goes down the tree, handed on by the
    /// forwarders' services: on 8 nodes, under both protocols and as a
    /// superseding span under LRC (half the page: debug builds check the
    /// other half at every install), every node reads node 0's words
    /// without a fault, on every explored schedule, and every node gets
    /// one message.
    #[test]
    fn a_push_to_every_node_goes_down_the_tree() {
        for (cfg, rewritten) in [
            (TmkConfig::default(), None),
            (TmkConfig::default(), Some(0..256)),
            (TmkConfig::hlrc(), None),
        ] {
            let out = run_cfg(8, cfg, |tmk| {
                let a = tmk.malloc_f64(512);
                if tmk.proc_id() == 0 {
                    tmk.write(a, 0..256).slice_mut().fill(5.0);
                    let mut pushes = Pushes::default();
                    if let Some(words) = &rewritten {
                        pushes.supersede(a, words.clone(), 512);
                    }
                    (1..8).for_each(|q| _ = pushes.whole(q, tmk.page_span(a, &(0..512))));
                    tmk.push_at_next_sync(&pushes);
                }
                tmk.barrier(0);
                let before = tmk.stats_snapshot().faults;
                let v = tmk.read(a, 0..512).slice().to_vec();
                let faults = tmk.stats_snapshot().faults - before;
                tmk.finish();
                (v.iter().filter(|&&x| x == 5.0).count(), faults)
            });
            let ctx = format!("{:?}, rewritten {rewritten:?}", cfg.protocol);
            assert!(
                out.results.iter().all(|&r| r == (256, 0)),
                "{ctx}: {:?}",
                out.results
            );
            assert_eq!(out.stats.messages(MsgKind::Push), 7, "{ctx}");
        }
    }

    #[test]
    fn validate_aggregates_the_whole_phase_into_one_round_trip() {
        // One writer fills two arrays (8 + 4 pages); the reader validates
        // both sections at once: exactly one ValidateReq/ValidateResp
        // pair, one access fault, and zero diff requests afterwards.
        let out = run(2, |tmk| {
            let a = tmk.malloc_f64(512 * 8);
            let b = tmk.malloc_f64(512 * 4);
            if tmk.proc_id() == 0 {
                let mut w = tmk.write(a, 0..512 * 8);
                for x in w.slice_mut().iter_mut() {
                    *x = 2.0;
                }
                drop(w);
                let mut w = tmk.write(b, 0..512 * 4);
                for x in w.slice_mut().iter_mut() {
                    *x = 3.0;
                }
            }
            tmk.barrier(0);
            let mut probe = (0.0, 0.0, 0, 0);
            if tmk.proc_id() == 1 {
                let before = tmk.stats_snapshot();
                let runs = [a, b].map(|arr| tmk.page_span(arr, &(0..arr.len())));
                let pages = tmk.validate(0, 2, &runs, &[], &[]);
                assert_eq!(pages, 12);
                let ra = tmk.read(a, 0..512 * 8);
                let rb = tmk.read(b, 0..512 * 4);
                let after = tmk.stats_snapshot();
                probe = (
                    ra[100],
                    rb[100],
                    (after.faults - before.faults) as usize,
                    (after.validate_pages - before.validate_pages) as usize,
                );
            }
            tmk.barrier(1);
            tmk.finish();
            probe
        });
        let (va, vb, faults, vpages) = out.results[1];
        assert_eq!((va, vb), (2.0, 3.0));
        // One aggregate fault for the validate, none for the reads.
        assert_eq!(faults, 1);
        assert_eq!(vpages, 12);
        assert_eq!(out.stats.messages(MsgKind::ValidateReq), 1);
        assert_eq!(out.stats.messages(MsgKind::ValidateResp), 1);
        assert_eq!(out.stats.messages(MsgKind::DiffReq), 0);
    }

    /// A write fault's twin is the `Fault` span's own time: node 0's
    /// first write fetches nothing and records no `DiffApply` span, while
    /// node 1's, after the barrier, fetches node 0's diff and records one
    /// for the diff alone.
    #[test]
    fn a_write_fault_with_nothing_to_fetch_records_no_diff_apply() {
        let cfg = ClusterConfig {
            trace: true,
            ..ClusterConfig::sp2(2)
        };
        let out = Cluster::run(cfg, |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let a = tmk.malloc_f64(16);
            if tmk.proc_id() == 0 {
                tmk.write(a, 0..8).slice_mut().fill(1.0);
            }
            tmk.barrier(0);
            if tmk.proc_id() == 1 {
                tmk.write(a, 8..16).slice_mut().fill(2.0);
            }
            tmk.barrier(1);
            tmk.finish();
        });
        let cost = sp2sim::CostModel::sp2();
        let trace = out.trace.expect("a traced run");
        for (node, applies) in [(0, 0), (1, 1)] {
            let events = &trace
                .track(node, sp2sim::TracePort::App)
                .expect("app track")
                .events;
            let begins = |kind| {
                let begin = |e: &&sp2sim::Event| e.kind == EventKind::Begin { kind, arg: 0 };
                events.iter().filter(begin).count()
            };
            assert_eq!(begins(SpanKind::DiffApply), applies, "node {node}");
            // The first fault span: its own time is the write fault and
            // the twin, whatever it applied besides.
            let at = |k: &dyn Fn(&EventKind) -> bool| events.iter().position(|e| k(&e.kind));
            let open = at(&|k| {
                matches!(
                    k,
                    EventKind::Begin {
                        kind: SpanKind::Fault,
                        ..
                    }
                )
            });
            let close = at(&|k| {
                *k == EventKind::End {
                    kind: SpanKind::Fault,
                }
            });
            let (open, close) = (open.expect("a fault"), close.expect("its end"));
            let span = events[close].vt_us - events[open].vt_us;
            let nested: f64 = (open..close)
                .filter(|&i| {
                    events[i].kind
                        == EventKind::Begin {
                            kind: SpanKind::DiffApply,
                            arg: 0,
                        }
                })
                .map(|i| events[i + 1].vt_us - events[i].vt_us)
                .sum();
            let own = span - nested;
            let want = cost.page_fault_us + cost.twin_us;
            assert!(own >= want - 1e-9, "node {node}: {own} µs of own time");
            assert!(node == 1 || (own - want).abs() < 1e-9, "node 0: {own} µs");
        }
    }

    /// Write-all, under both protocols: node 0 fills page 0 (`i`), then
    /// node 1 overwrites it whole as loop 7's armed body, storing the
    /// same values on the even words — a write over the invalid page
    /// that sends no request and takes no fault and no twin. Node 2
    /// then reads node 1's page bit for bit (LRC: a diff request to each
    /// writer; HLRC: a page fetch from home 0, after node 1's flush),
    /// and node 1's diff is the whole page, even words included.
    #[test]
    fn an_armed_write_fetches_nothing_and_publishes_the_page_whole() {
        let value = |i: usize| if i.is_multiple_of(2) { i } else { 1000 + i } as f64;
        for protocol in ProtocolMode::ALL {
            let out = run_cfg(3, TmkConfig::default().with_protocol(protocol), |tmk| {
                let a = tmk.malloc_f64(512);
                if tmk.proc_id() == 0 {
                    let mut w = tmk.write(a, 0..512);
                    w.slice_mut()
                        .iter_mut()
                        .enumerate()
                        .for_each(|(i, x)| *x = i as f64);
                }
                tmk.barrier(0);
                let before = tmk.stats_snapshot();
                if tmk.proc_id() == 1 {
                    tmk.validate(7, 0, &[], &[tmk.page_span(a, &(0..512))], &[]);
                    let mut w = tmk.write(a, 0..512);
                    w.slice_mut()
                        .iter_mut()
                        .enumerate()
                        .for_each(|(i, x)| *x = value(i));
                }
                tmk.barrier(1);
                let seen = match tmk.proc_id() {
                    2 => tmk
                        .read(a, 0..512)
                        .slice()
                        .iter()
                        .map(|x| x.to_bits())
                        .collect(),
                    _ => Vec::new(),
                };
                tmk.barrier(2);
                let after = tmk.stats_snapshot();
                tmk.finish();
                let moved = (after.faults - before.faults, after.twins - before.twins);
                (
                    moved,
                    after.diff_words_created - before.diff_words_created,
                    seen,
                )
            });
            let want: Vec<u64> = (0..512).map(|i| value(i).to_bits()).collect();
            assert_eq!(
                out.results[1].0,
                (0, 0),
                "{protocol}: node 1's faults and twins"
            );
            assert_eq!(
                out.results[1].1, 512,
                "{protocol}: node 1's diff is the whole page"
            );
            assert_eq!(
                out.results[2].2, want,
                "{protocol}: node 2 reads node 1's page"
            );
            let requests =
                out.stats.messages(MsgKind::DiffReq) + out.stats.messages(MsgKind::PageReq);
            let readers = match protocol {
                ProtocolMode::Lrc => 2,
                ProtocolMode::Hlrc => 1,
            };
            assert_eq!(requests, readers, "{protocol}: node 2's requests only");
        }
    }

    /// The write-all contract's checks, under both protocols and with
    /// debug assertions: the message of the panic `body` raises on node 0
    /// of two, with page 0 armed for loop 7.
    #[cfg(debug_assertions)]
    fn armed_panic(protocol: ProtocolMode, body: fn(&Tmk, SharedArray)) -> String {
        let cfg = TmkConfig::default().with_protocol(protocol);
        let payload = std::panic::catch_unwind(|| {
            Cluster::run(ClusterConfig::sp2(2), |node| {
                let tmk = Tmk::new(node, cfg);
                let a = tmk.malloc_f64(512);
                if tmk.proc_id() == 0 {
                    tmk.validate(7, 0, &[], &[tmk.page_span(a, &(0..512))], &[]);
                    body(&tmk, a);
                }
                tmk.barrier(0);
                tmk.finish();
            });
        })
        .expect_err("the contract is broken");
        match payload.downcast::<String>() {
            Ok(said) => *said,
            Err(payload) => payload.downcast_ref::<&str>().unwrap_or(&"").to_string(),
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn an_armed_page_left_partly_unstored_panics_naming_its_loop() {
        for protocol in ProtocolMode::ALL {
            let said = armed_panic(protocol, |tmk, a| {
                let mut w = tmk.write(a, 0..512);
                w.slice_mut()[..511].fill(1.0);
            });
            assert!(
                said.contains("loop 7 left word 511 of page 0 unstored"),
                "{protocol}: {said}"
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_read_of_an_armed_page_before_its_write_panics_naming_its_loop() {
        for protocol in ProtocolMode::ALL {
            let said = armed_panic(protocol, |tmk, a| drop(tmk.read(a, 3..4)));
            let want = "loop 7 reads page 0 before it writes it";
            assert!(said.contains(want), "{protocol}: {said}");
        }
    }

    /// A validated write, under both protocols: node 1 validates two
    /// pages node 0 wrote, arms the first as written for loop 7 and
    /// writes part of each. The declared page's write takes its twin and
    /// no fault — `twin_us` of clock, `faults` still, `twins` up one —
    /// and the undeclared one's is charged as before, as both are in the
    /// same program run unarmed; every node then reads what the unarmed
    /// run leaves, bit for bit.
    #[test]
    fn a_validated_write_takes_its_twin_and_no_fault() {
        let cost = sp2sim::CostModel::sp2();
        let (fault, twin) = (cost.page_fault_us, cost.twin_us);
        for protocol in ProtocolMode::ALL {
            let program = |armed: bool| {
                let cfg = TmkConfig::default().with_protocol(protocol);
                run_cfg(3, cfg, move |tmk| {
                    let a = tmk.malloc_f64(1024);
                    if tmk.proc_id() == 0 {
                        let mut w = tmk.write(a, 0..1024);
                        let words = w.slice_mut().iter_mut().enumerate();
                        words.for_each(|(i, x)| *x = i as f64);
                    }
                    tmk.barrier(0);
                    let mut charged = Vec::new();
                    if tmk.proc_id() == 1 {
                        let pages = tmk.page_span(a, &(0..1024));
                        tmk.validate(7, 1, std::slice::from_ref(&pages), &[], &[]);
                        if armed {
                            let first = pages.start..pages.start + 1;
                            tmk.validate(7, 0, &[], &[], std::slice::from_ref(&first));
                        }
                        for words in [100..200, 600..700] {
                            let (t0, s0) = (tmk.node().now().us(), tmk.stats_snapshot());
                            tmk.write(a, words).slice_mut().fill(-1.0);
                            let s1 = tmk.stats_snapshot();
                            let us = tmk.node().now().us() - t0;
                            charged.push((us, s1.faults - s0.faults, s1.twins - s0.twins));
                        }
                    }
                    tmk.barrier(1);
                    let seen: Vec<u64> = (tmk.read(a, 0..1024).slice().iter())
                        .map(|x| x.to_bits())
                        .collect();
                    tmk.finish();
                    (charged, seen)
                })
            };
            let (armed, unarmed) = (program(true), program(false));
            let close = |got: &[(f64, u64, u64)], want: [(f64, u64, u64); 2]| {
                got.len() == 2
                    && got
                        .iter()
                        .zip(want)
                        .all(|(g, w)| (g.0 - w.0).abs() < 1e-9 && (g.1, g.2) == (w.1, w.2))
            };
            let charged = &armed.results[1].0;
            let want = [(twin, 0, 1), (fault + twin, 1, 1)];
            assert!(close(charged, want), "{protocol}: armed {charged:?}");
            let charged = &unarmed.results[1].0;
            let want = [(fault + twin, 1, 1), (fault + twin, 1, 1)];
            assert!(close(charged, want), "{protocol}: unarmed {charged:?}");
            for (node, (a, u)) in armed.results.iter().zip(&unarmed.results).enumerate() {
                assert_eq!(a.1, u.1, "{protocol}: node {node}'s memory");
            }
        }
    }

    /// With debug assertions, a body's write view outside the words its
    /// fence declares written panics, naming the loop and the array,
    /// though the words are declared read; a fence that leaves reads
    /// alone (an inspector's) lets any read view open.
    #[test]
    #[cfg(debug_assertions)]
    fn a_write_view_outside_the_declared_writes_panics() {
        let payload = std::panic::catch_unwind(|| {
            Cluster::run(ClusterConfig::sp2(2), |node| {
                let tmk = Tmk::new(node, TmkConfig::default());
                let (a, b) = (tmk.malloc_f64(1024), tmk.malloc_f64(512));
                if tmk.proc_id() == 0 {
                    let fence = |reads| ViewFence {
                        loop_id: 4,
                        reads,
                        arrays: vec![(a, std::iter::once(0..1024).collect())],
                        writes: vec![(a, std::iter::once(512..1024).collect())],
                    };
                    tmk.fence_views(Some(4), Some(fence(false)));
                    drop(tmk.read(b, 0..512));
                    tmk.fence_views(Some(4), Some(fence(true)));
                    drop(tmk.read(a, 0..1024));
                    drop(tmk.write(a, 600..700));
                    drop(tmk.write(a, 100..200));
                }
                tmk.finish();
            });
        })
        .expect_err("the body writes words it declared read");
        let said = payload.downcast::<String>().map(|s| *s).unwrap_or_default();
        let want = "loop 4 opens words 100..200 of the array at page 0 to write, outside what \
                    its descriptor declared written for this node";
        assert!(said.contains(want), "{said}");
    }

    #[test]
    fn validate_is_a_noop_when_everything_is_consistent() {
        let out = run(2, |tmk| {
            let a = tmk.malloc_f64(64);
            tmk.barrier(0);
            let missing = tmk.validate(0, 1, &[tmk.page_span(a, &(0..64))], &[], &[]);
            tmk.barrier(1);
            tmk.finish();
            missing
        });
        assert_eq!(out.results, vec![0, 0]);
        assert_eq!(out.stats.messages(MsgKind::ValidateReq), 0);
    }

    #[test]
    fn direct_reduce_combines_across_all_nodes() {
        for n in [1usize, 2, 3, 5, 8] {
            let out = run(n, |tmk| {
                let me = tmk.proc_id() as f64;
                let t = tmk.reduce(&[me + 1.0, 2.0 * me]);
                // A second reduction reuses nothing from the first.
                let t2 = tmk.reduce(&[1.0]);
                tmk.finish();
                (t, t2)
            });
            let sum1: f64 = (0..n).map(|q| q as f64 + 1.0).sum();
            let sum2: f64 = (0..n).map(|q| 2.0 * q as f64).sum();
            for (t, t2) in &out.results {
                assert_eq!(t, &vec![sum1, sum2], "n = {n}");
                assert_eq!(t2, &vec![n as f64], "n = {n}");
            }
            if n > 1 {
                // 2 (n - 1) messages per reduction.
                assert_eq!(
                    out.stats.messages(MsgKind::ReducePart),
                    2 * (n as u64 - 1),
                    "n = {n}"
                );
                assert_eq!(
                    out.stats.messages(MsgKind::ReduceResult),
                    2 * (n as u64 - 1),
                    "n = {n}"
                );
            }
        }
    }

    /// Node `q`'s `(window, need)` in the windowed-reduction test, on a
    /// `len`-element vector: windows `2q .. 2q + 8` (three deep and more
    /// from node 2 on) except node 3's, which is empty; node 0 needs
    /// `2 .. 7` (so on one or two nodes some of its window goes nowhere),
    /// the other even nodes the whole vector, odd ones `q .. q + 5`.
    fn window_layout(q: usize, len: usize) -> (Range<usize>, Range<usize>) {
        let window = match q {
            3 => 0..0,
            _ => 2 * q..(2 * q + 8).min(len),
        };
        let need = match q % 2 {
            _ if q == 0 => 2..7,
            0 => 0..len,
            _ => q..(q + 5).min(len),
        };
        (window, need)
    }

    /// Node `q`'s value for element `i` in round `round`: inexact, so
    /// that sums depend on their addition order.
    fn window_value(q: usize, i: usize, round: usize) -> f64 {
        (q as f64 + 1.0).recip() + 0.1 * i as f64 + round as f64
    }

    /// Node `p`'s result range of round `round`, folded from +0.0 over
    /// the contributing nodes in the order `ranks` gives for `p`.
    fn window_fold(
        n: usize,
        len: usize,
        p: usize,
        round: usize,
        ranks: impl Fn(usize) -> Vec<usize>,
    ) -> Vec<u64> {
        let need = window_layout(p, len).1;
        let mut out = vec![0.0f64; need.len()];
        for q in ranks(p).into_iter().filter(|&q| q < n) {
            for i in window_layout(q, len).0 {
                if need.contains(&i) {
                    out[i - need.start] += window_value(q, i, round);
                }
            }
        }
        out.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn windowed_reduce_goes_owner_to_owner_in_rank_order() {
        let (len, rounds) = (24, 2);
        for n in [1usize, 2, 3, 5, 8] {
            let layout = |q: usize| window_layout(q, len);
            let ascending = |_: usize| (0..n).collect::<Vec<_>>();
            // The data tell the rank order from one that folds a node's
            // own slice first, wherever that can differ.
            let own_first = |p: usize| {
                let mut ranks = vec![p];
                ranks.extend((0..n).filter(|&q| q != p));
                ranks
            };
            let tells = (0..n).any(|p| {
                window_fold(n, len, p, 0, ascending) != window_fold(n, len, p, 0, own_first)
            });
            assert_eq!(tells, n >= 3, "n = {n}");
            // Exactly one slice per (sender, receiver) pair whose window
            // and need overlap, per round, carrying exactly those words.
            let mut expect_sends: Vec<(usize, usize, u32)> = Vec::new();
            for (q, p) in (0..n).flat_map(|q| (0..n).map(move |p| (q, p))) {
                let (w, need) = (layout(q).0, layout(p).1);
                let words = w.start.max(need.start)..w.end.min(need.end);
                if q != p && !words.is_empty() {
                    expect_sends.extend((0..rounds).map(|_| (q, p, 8 * words.len() as u32)));
                }
            }
            // Every schedule a result is wrong on, each named.
            let mut wrong = Vec::new();
            for engine in EngineKind::explore(16) {
                let cfg = ClusterConfig {
                    trace: true,
                    ..ClusterConfig::sp2_on(n, engine)
                };
                let out = Cluster::run(cfg, |node| {
                    let tmk = Tmk::new(node, TmkConfig::default());
                    let me = tmk.proc_id();
                    // Two rounds back to back: a fast node's second slice
                    // may land before a slow node's first is taken.
                    let got: Vec<Vec<u64>> = (0..rounds)
                        .map(|round| {
                            let vals = layout(me).0.map(|i| window_value(me, i, round));
                            let t = tmk.reduce_windows(len, vals, layout);
                            t.iter().map(|x| x.to_bits()).collect()
                        })
                        .collect();
                    tmk.finish();
                    got
                });
                for (p, got) in out.results.iter().enumerate() {
                    for (round, got) in got.iter().enumerate() {
                        if *got != window_fold(n, len, p, round, ascending) {
                            wrong.push(format!("{engine}, n = {n}, node {p}, round {round}"));
                        }
                    }
                }
                let trace = out.trace.expect("a traced run");
                let mut sends: Vec<(usize, usize, u32)> = (trace.tracks.iter())
                    .flat_map(|t| t.events.iter().map(move |e| (t.node as usize, e.kind)))
                    .filter_map(|(q, kind)| match kind {
                        EventKind::Send {
                            code, bytes, peer, ..
                        } if code == MsgKind::ReducePart as u8 => Some((q, peer as usize, bytes)),
                        _ => None,
                    })
                    .collect();
                sends.sort_unstable();
                assert_eq!(sends, expect_sends, "{engine}, n = {n}");
                let bytes = expect_sends.iter().map(|s| s.2 as u64).sum();
                let stats = &out.stats;
                let traffic = [
                    stats.messages(MsgKind::ReduceResult),
                    stats.bytes_of(MsgKind::ReducePart),
                ];
                assert_eq!(traffic, [0, bytes], "{engine}, n = {n}");
            }
            assert!(
                wrong.is_empty(),
                "not the rank-order fold on:\n{}",
                wrong.join("\n")
            );
        }
    }

    #[test]
    fn pushes_ride_the_forkjoin_rendezvous() {
        // Worker 1 writes a page and registers a push to worker 2 and to
        // the master; the pushes are delivered with the next fork-join
        // cycle and neither consumer faults.
        let n = 3;
        let out = Cluster::run(ClusterConfig::sp2(n), |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let a = tmk.malloc_f64(16);
            if tmk.proc_id() == 0 {
                tmk.fork(&[1]); // loop 1: worker 1 writes
                tmk.join();
                tmk.fork(&[2]); // loop 2: everyone reads
                let before = tmk.stats_snapshot().faults;
                let v = tmk.read_one(a, 3);
                let faults = tmk.stats_snapshot().faults - before;
                tmk.join();
                tmk.shutdown_workers();
                tmk.finish();
                (v, faults)
            } else {
                let mut seen = (0.0, 0u64);
                while let Some(ctl) = tmk.worker_wait() {
                    match ctl[0] {
                        1 => {
                            if tmk.proc_id() == 1 {
                                let mut w = tmk.write(a, 0..16);
                                for i in 0..16 {
                                    w[i] = 7.0;
                                }
                                drop(w);
                                tmk.push_at_next_sync(
                                    Pushes::default().whole(2, tmk.page_span(a, &(0..16))),
                                );
                                tmk.push_at_next_sync(
                                    Pushes::default().whole(0, tmk.page_span(a, &(0..16))),
                                );
                            }
                        }
                        _ => {
                            let before = tmk.stats_snapshot().faults;
                            let v = tmk.read_one(a, 3);
                            seen = (v, tmk.stats_snapshot().faults - before);
                        }
                    }
                }
                tmk.finish();
                seen
            }
        });
        for (id, (v, faults)) in out.results.iter().enumerate() {
            if id == 1 {
                continue; // the writer
            }
            assert_eq!(*v, 7.0, "node {id} sees the pushed data");
            assert_eq!(*faults, 0, "node {id} must not fault");
        }
        assert_eq!(out.stats.messages(MsgKind::Push), 2);
        assert_eq!(out.stats.messages(MsgKind::DiffReq), 0);
    }

    /// A node's frame and applied watermarks of each page.
    type Frames = Vec<(Vec<u64>, Vec<u32>)>;

    /// This node's frame and applied watermarks of every page of `pages`.
    fn frames_of(tmk: &Tmk, pages: Range<usize>) -> Frames {
        let st = tmk.state.lock();
        let frame = |p| (st.frames.data(p).map(<[u64]>::to_vec), st.frames.applied(p));
        let frame = |p| {
            frame(p)
                .0
                .zip(frame(p).1.map(<[u32]>::to_vec))
                .expect("a frame")
        };
        pages.map(frame).collect()
    }

    /// A link push gives way: node 0 registers pushes of page P to nodes
    /// 1 and 2 and of page Q to node 1, then rewrites P and link-pushes it
    /// to node 1, which takes it. At the barrier node 2 gets P and node 1
    /// gets Q, but not P again: node 0 pushes three pages in all, node 1's
    /// frame of P stays the link push's, and no reader faults. (A packet
    /// left queued at the end of a run fails it in debug builds.)
    #[test]
    fn a_link_push_takes_its_pages_out_of_the_rendezvous() {
        let cfg = TmkConfig {
            page_words: 16,
            ..TmkConfig::default()
        };
        let out = run_cfg(3, cfg, |tmk| {
            let a = tmk.malloc_f64(32);
            let (p, q) = (a.first_page(), a.first_page() + 1);
            let mut linked = None;
            match tmk.proc_id() {
                0 => {
                    tmk.write(a, 0..32).slice_mut().fill(1.0);
                    let mut pushes = Pushes::default();
                    pushes.whole(1, [p]).whole(2, [p]).whole(1, [q]);
                    assert_eq!(tmk.push_at_next_sync(&pushes), 3);
                    tmk.write(a, 0..16).slice_mut().fill(2.0);
                    let p_words = 0..16;
                    tmk.push_link(&[(a, vec![p_words])], &[1]);
                }
                1 => {
                    tmk.take_link_push(0);
                    linked = Some(frames_of(tmk, p..p + 1));
                }
                _ => {}
            }
            tmk.barrier(0);
            let (before, me) = (tmk.stats_snapshot().faults, tmk.proc_id());
            let seen = tmk.read(a, 0..[32, 32, 16][me]).slice().to_vec();
            let faults = tmk.stats_snapshot().faults - before;
            let same = linked.is_none_or(|linked| linked == frames_of(tmk, p..p + 1));
            tmk.barrier(1);
            (seen, faults, same, tmk.finish().pages_pushed)
        });
        let (ones, twos) = (vec![1.0; 16], vec![2.0; 16]);
        assert_eq!(out.results[0].3, 3, "P to node 1 once, by the link push");
        assert_eq!(out.results[1], ([&twos[..], &ones].concat(), 0, true, 0));
        assert_eq!(out.results[2], (twos, 0, true, 0));
        assert_eq!(out.stats.messages(MsgKind::Push), 3);
    }

    /// A push of the words `0..4` of a page to a node that then reads
    /// word 10, outside them: the view faults on the hole — one fault,
    /// one diff request — and the frame and its watermarks come out as a
    /// push of the whole page leaves them.
    #[test]
    fn a_read_outside_the_meet_faults_and_ends_as_a_page_push() {
        let cfg = TmkConfig {
            page_words: 16,
            ..TmkConfig::default()
        };
        let program = |meet: bool| {
            move |tmk: &Tmk| {
                let a = tmk.malloc_f64(16);
                if tmk.proc_id() == 1 {
                    let mut w = tmk.write(a, 0..16);
                    (0..16).for_each(|i| w[i] = i as f64 + 1.0);
                    drop(w);
                    let mut pushes = Pushes::default();
                    match meet {
                        true => pushes.meet(0, 0, std::slice::from_ref(&(0..4)), 16),
                        false => pushes.whole(0, [0]),
                    };
                    tmk.push_at_next_sync(&pushes);
                }
                tmk.barrier(0);
                let before = tmk.stats_snapshot();
                let inside = tmk.read_one(a, 2);
                let mid = tmk.stats_snapshot();
                let outside = tmk.read_one(a, 10);
                let after = tmk.stats_snapshot();
                let frames = frames_of(tmk, 0..1);
                tmk.finish();
                let faults = [mid.faults - before.faults, after.faults - mid.faults];
                (inside, outside, faults, after.hole_faults, frames)
            }
        };
        let (meet, page) = (
            run_cfg(2, cfg, program(true)),
            run_cfg(2, cfg, program(false)),
        );
        let (inside, outside, faults, holes, frames) = &meet.results[0];
        assert_eq!((*inside, *outside), (3.0, 11.0));
        assert_eq!(
            (faults, *holes),
            (&[0, 1], 1),
            "the hole word faults, the meet does not"
        );
        assert_eq!(meet.stats.messages(MsgKind::DiffReq), 1);
        assert_eq!(
            page.results[0].2,
            [0, 0],
            "a page push leaves nothing to fault on"
        );
        assert_eq!(
            frames, &page.results[0].4,
            "memory and watermarks as a page push's"
        );
        assert!(meet.stats.bytes_of(MsgKind::Push) < page.stats.bytes_of(MsgKind::Push));
    }

    /// One round of [`meet_program`]: `writer` stores words `lo..lo + len`
    /// and pushes them to the others, each reading the page-relative
    /// words `meet` of every page written; then `reader` reads `read`.
    type Round = (usize, usize, usize, Range<usize>, usize, Range<usize>);

    /// Rounds of writes, each pushed to the other nodes by meet (`meets`)
    /// or by page, each followed by one node's read, on 3 nodes with two
    /// 16-word pages under `engine`; then every node reads everything.
    /// Returns each node's frames, watermarks and hole faults.
    fn meet_program(engine: EngineKind, meets: bool, rounds: &[Round]) -> Vec<(Frames, u64)> {
        let cfg = TmkConfig {
            page_words: 16,
            ..TmkConfig::default()
        };
        let out = Cluster::run(ClusterConfig::sp2_on(3, engine), |node| {
            let tmk = Tmk::new(node, cfg);
            let a = tmk.malloc_f64(32);
            for (k, (writer, lo, len, meet, reader, read)) in rounds.iter().cloned().enumerate() {
                let me = tmk.proc_id();
                if me == writer {
                    let mut w = tmk.write(a, lo..lo + len);
                    (lo..lo + len).for_each(|i| w[i] = (100 * k + i) as f64);
                    drop(w);
                    for (p, t) in
                        (lo / 16..(lo + len - 1) / 16 + 1).flat_map(|p| (0..3).map(move |t| (p, t)))
                    {
                        let mut pushes = Pushes::default();
                        match meets {
                            true => pushes.meet(
                                t,
                                p,
                                std::slice::from_ref(&(16 * p + meet.start..16 * p + meet.end)),
                                16,
                            ),
                            false => pushes.whole(t, [p]),
                        };
                        tmk.push_at_next_sync(&pushes);
                    }
                }
                tmk.barrier(2 * k as u32);
                if me == reader {
                    drop(tmk.read(a, read));
                }
                tmk.barrier(2 * k as u32 + 1);
            }
            drop(tmk.read(a, 0..32));
            let frames = frames_of(&tmk, 0..2);
            let holes = tmk.finish().hole_faults;
            (frames, holes)
        });
        out.results
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random producer ranges, meets, later writes by other writers,
        /// hole fills and a final whole read: every node's frames and
        /// applied watermarks come out bit-equal to page pushes', on the
        /// FIFO schedule and three seeded ones.
        #[test]
        fn prop_meet_pushes_end_as_page_pushes(
            raw in prop::collection::vec(
                ((0usize..3, 0usize..32, 1usize..20), (0usize..16, 1usize..16), (0usize..3, 0usize..32, 1usize..32)),
                1..6,
            ),
        ) {
            let rounds: Vec<Round> = raw
                .iter()
                .map(|&((w, lo, len), (mo, ml), (r, rl, rlen))| {
                    let len = len.min(32 - lo);
                    let read = rl.min(31)..(rl + rlen).min(32);
                    (w, lo, len, mo..(mo + ml).min(16), r, read)
                })
                .collect();
            let mut holes = 0;
            for engine in EngineKind::explore(3) {
                let meet = meet_program(engine, true, &rounds);
                let page = meet_program(engine, false, &rounds);
                for (node, (m, p)) in meet.iter().zip(&page).enumerate() {
                    prop_assert_eq!(&m.0, &p.0, "node {} on {} after {:?}", node, engine, rounds);
                    holes += m.1;
                }
            }
            HOLES_FILLED.with(|h| h.set(h.get() + holes));
        }
    }

    thread_local! {
        /// Hole faults over the cases of `prop_meet_pushes_end_as_page_pushes`.
        static HOLES_FILLED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// The property above is not vacuous: its programs fault on holes.
    #[test]
    fn meet_pushes_property_fills_holes() {
        prop_meet_pushes_end_as_page_pushes();
        assert!(HOLES_FILLED.with(|h| h.get()) > 0);
    }

    #[test]
    fn gapped_push_is_dropped_not_misapplied() {
        // Writer creates interval 1 (word 0), which the consumer fetches;
        // then intervals 2 and 3 in separate frozen ranges (a diff request
        // from node 2 freezes range [2..2]); the push of the *latest*
        // range [3..3] to node 1 would skip range [2..2] there — the
        // consumer must drop it and demand-fetch the full set instead.
        let out = run(3, |tmk| {
            let a = tmk.malloc_f64(8);
            let me = tmk.proc_id();
            if me == 0 {
                tmk.write_one(a, 0, 1.0);
            }
            tmk.barrier(0);
            // Everyone applies interval 1.
            let _ = tmk.read(a, 0..8);
            tmk.barrier(1);
            if me == 0 {
                tmk.write_one(a, 1, 2.0); // interval 2
            }
            tmk.barrier(2);
            if me == 2 {
                let _ = tmk.read(a, 0..8); // freezes range [2..2]
            }
            tmk.barrier(3);
            if me == 0 {
                tmk.write_one(a, 2, 3.0); // interval 3 (open range [3..3])
                tmk.push_at_next_sync(Pushes::default().whole(1, tmk.page_span(a, &(0..8))));
            }
            tmk.barrier(4);
            let v = {
                let r = tmk.read(a, 0..8);
                (r[0], r[1], r[2])
            };
            tmk.finish();
            v
        });
        for (id, v) in out.results.iter().enumerate() {
            assert_eq!(*v, (1.0, 2.0, 3.0), "node {id}");
        }
    }

    #[test]
    fn bcast_pages_distributes_without_faults() {
        for n in [1usize, 2, 3, 5, 8] {
            for root in 0..n {
                let out = run(n, |tmk| {
                    let a = tmk.malloc_f64(600); // two pages
                    if tmk.proc_id() == root {
                        let mut w = tmk.write(a, 0..600);
                        for i in 0..600 {
                            w[i] = i as f64;
                        }
                        drop(w);
                    }
                    tmk.bcast_pages(root, a, 0..600);
                    let ok = {
                        let r = tmk.read(a, 0..600);
                        (0..600).all(|i| r[i] == i as f64)
                    };
                    let faults = tmk.stats_snapshot().faults;
                    tmk.barrier(0);
                    tmk.finish();
                    (ok, faults)
                });
                let cell = format!("root {root} of {n}");
                for (i, &(ok, faults)) in out.results.iter().enumerate() {
                    assert!(ok, "{cell}: node {i} content");
                    assert!(i == root || faults == 0, "{cell}: node {i} faulted");
                }
                assert_eq!(out.stats.messages(MsgKind::Bcast), n as u64 - 1, "{cell}");
                assert_eq!(out.stats.messages(MsgKind::DiffReq), 0, "{cell}");
            }
        }
    }

    #[test]
    fn sequential_consistency_of_epochs() {
        // Writer updates the same page every epoch; readers must see
        // exactly the epoch-consistent values, never future ones.
        for protocol in ProtocolMode::ALL {
            let out = run_cfg(3, TmkConfig::default().with_protocol(protocol), |tmk| {
                let a = tmk.malloc_f64(8);
                let mut seen = Vec::new();
                for epoch in 0..5u32 {
                    if tmk.proc_id() == 0 {
                        let mut w = tmk.write(a, 0..8);
                        for i in 0..8 {
                            w[i] = f64::from(epoch);
                        }
                        drop(w);
                    }
                    tmk.barrier(epoch);
                    seen.push(tmk.read(a, 0..8)[0]);
                    tmk.barrier(100 + epoch);
                }
                tmk.finish();
                seen
            });
            for r in out.results {
                assert_eq!(r, vec![0.0, 1.0, 2.0, 3.0, 4.0], "{protocol}");
            }
        }
    }

    #[test]
    fn aggregation_reduces_requests() {
        let run_with = |aggregation: bool| {
            Cluster::run(ClusterConfig::sp2(2), move |node| {
                let tmk = Tmk::new(
                    node,
                    TmkConfig {
                        aggregation,
                        ..TmkConfig::default()
                    },
                );
                let a = tmk.malloc_f64(512 * 8); // 8 pages
                if tmk.proc_id() == 0 {
                    let mut w = tmk.write(a, 0..512 * 8);
                    for i in 0..512 * 8 {
                        w[i] = 1.0;
                    }
                    drop(w);
                }
                tmk.barrier(0);
                if tmk.proc_id() == 1 {
                    let r = tmk.read(a, 0..512 * 8);
                    assert!(r.slice().iter().all(|&x| x == 1.0));
                }
                tmk.barrier(1);
                tmk.finish();
            })
        };
        let plain = run_with(false);
        let agg = run_with(true);
        assert_eq!(plain.stats.messages(MsgKind::DiffReq), 8);
        assert_eq!(agg.stats.messages(MsgKind::DiffReq), 1);
        // Same data volume either way, modulo 7 saved per-response count
        // words (the actual diff payload is identical).
        let plain_bytes = plain.stats.bytes_of(MsgKind::DiffResp);
        let agg_bytes = agg.stats.bytes_of(MsgKind::DiffResp);
        assert!(plain_bytes - agg_bytes <= 7 * 8);
        assert!(agg_bytes > 8 * 512 * 8u64);
        // Aggregation must be faster.
        assert!(agg.elapsed < plain.elapsed);
    }

    /// A push carries its pusher's newest interval once: registered again
    /// at a rendezvous whose release dirtied nothing, the page is not
    /// pushed again.
    #[test]
    fn a_release_that_opens_no_interval_pushes_nothing() {
        let out = run(2, |tmk| {
            let a = tmk.malloc_f64(16);
            for round in 0..2 {
                if tmk.proc_id() == 0 {
                    if round == 0 {
                        tmk.write(a, 0..16).slice_mut().fill(5.0);
                    }
                    tmk.push_at_next_sync(Pushes::default().whole(1, tmk.page_span(a, &(0..16))));
                }
                tmk.barrier(round);
            }
            let v = tmk.read_one(a, 3);
            (v, tmk.finish().pages_pushed)
        });
        assert_eq!(out.results, [(5.0, 1), (5.0, 0)]);
        assert_eq!(out.stats.messages(MsgKind::Push), 1);
    }

    /// Node 1 writes a page private to it across two barriers: under both
    /// protocols, without a fault, a twin or an interval.
    #[test]
    fn a_private_write_takes_no_fault_or_twin_and_publishes_nothing() {
        for protocol in ProtocolMode::ALL {
            let out = run_cfg(2, TmkConfig::default().with_protocol(protocol), |tmk| {
                let a = tmk.malloc_f64(512);
                tmk.privatize(&[(a.first_page(), Some(1))]);
                for round in 0..2 {
                    if tmk.proc_id() == 1 {
                        tmk.write(a, 0..512).slice_mut().fill(round as f64);
                    }
                    tmk.barrier(round);
                }
                let s = tmk.finish();
                (s.faults, s.twins, s.intervals_created)
            });
            assert_eq!(out.results[1], (0, 0, 0), "{protocol:?}");
        }
    }

    /// Node 0 reads a page private to node 1 — an owner fetch, which ends
    /// its privacy — and node 1 then writes one word of it: under both
    /// protocols node 0 read node 1's private words, and every node,
    /// node 2 by an owner fetch of its own, reads the page whole.
    #[test]
    fn an_owner_fetch_serves_the_owners_words_and_its_later_writes_travel() {
        for protocol in ProtocolMode::ALL {
            let out = run_cfg(3, TmkConfig::default().with_protocol(protocol), |tmk| {
                let a = tmk.malloc_f64(512);
                tmk.privatize(&[(a.first_page(), Some(1))]);
                if tmk.proc_id() == 1 {
                    tmk.write(a, 0..512).slice_mut().fill(1.0);
                }
                tmk.barrier(0);
                let fetched = (tmk.proc_id() == 0).then(|| tmk.read_one(a, 7));
                tmk.barrier(1);
                if tmk.proc_id() == 1 {
                    tmk.write_one(a, 7, 2.0);
                }
                tmk.barrier(2);
                let sum = tmk.read(a, 0..512).slice().iter().sum::<f64>();
                tmk.finish();
                (fetched, sum)
            });
            let want = [(Some(1.0), 513.0), (None, 513.0), (None, 513.0)];
            assert_eq!(out.results, want, "{protocol:?}");
        }
    }

    /// With debug assertions, a loop body that opens a view on a page
    /// private to another node panics, naming the loop and the array.
    #[test]
    #[cfg(debug_assertions)]
    fn a_view_inside_a_body_on_a_page_private_elsewhere_panics() {
        let payload = std::panic::catch_unwind(|| {
            Cluster::run(ClusterConfig::sp2(2), |node| {
                let tmk = Tmk::new(node, TmkConfig::default());
                let a = tmk.malloc_f64(1024);
                tmk.privatize(&[(a.first_page() + 1, Some(1))]);
                if tmk.proc_id() == 0 {
                    tmk.fence_views(Some(4), None);
                    drop(tmk.read(a, 0..1024));
                }
                tmk.finish();
            });
        })
        .expect_err("the derivation missed a touch");
        let said = payload.downcast::<String>().map(|s| *s).unwrap_or_default();
        assert!(
            said.contains("loop 4 opens words 0..1024 of the array at page 0, whose page 1 is private to node 1"),
            "{said}"
        );
    }
}
