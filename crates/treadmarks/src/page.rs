//! Pages, extent-backed page frames, and the in-place views over them.
//!
//! A node's cached pages live in **extents**: contiguous runs of page
//! frames backed by one allocation each, held in a slab and found
//! through a page table — one entry per page, naming the slot of the
//! extent that holds it ([`FrameStore`]) — so finding a page's frame is
//! an index, never a search. Touching a single page no extent covers (a
//! push receipt, a validate, a broadcast, an HLRC fetch install) creates
//! a one-page extent. Opening a view over pages `p0..=p1` needs one
//! extent covering them all: every extent the range intersects is
//! replaced by one extent over their hull, words and bookkeeping carried
//! over, gaps left as the zero page. Access ranges repeat from epoch to
//! epoch, so merging stops after the first one and memory stays
//! touched-pages-only.
//!
//! [`ReadView`] and [`WriteView`] are **windows**, not snapshots: they
//! point at the words where they live, a store through a `WriteView`
//! lands in the frame at once, and dropping a view copies nothing. The
//! original system got the same effect from `mprotect`; here the page
//! faults are the explicit [`Tmk::read`](crate::dsm::Tmk::read) /
//! [`Tmk::write`](crate::dsm::Tmk::write) calls that open a view.
//!
//! ## Invariants
//!
//! All `unsafe` of the DSM is in this module and rests on four
//! invariants. The first three are checked at run time, in release
//! builds too. Each check scans the open views: about ten in the
//! applications' timed loops (Shallow's second step holds ten), and one
//! per column in the MGS checksum after them:
//!
//! 1. **Pinning.** An open view pins the extent under it. Replacing a
//!    pinned extent (a merge) panics, naming both ranges; so an extent's
//!    allocation outlives, unmoved, every view into it.
//! 2. **No aliasing.** A `WriteView`'s word range overlaps the word range
//!    of no other open view (`FrameStore::open_view` panics otherwise).
//!    Two views may share a *page* as long as they share no word.
//! 3. **No view across a consistency action.** Whatever integrates
//!    intervals, receives pushes or publishes asserts that no view is
//!    open ([`FrameStore::assert_quiescent`]), and a protocol update of a
//!    single page — diff apply, page install — refuses a page that lies
//!    under an open view ([`FrameStore::frame_mut`]). Protocol code
//!    therefore never *writes* words a view can see; while views are
//!    open it only reads (twin and published-image copies when another
//!    view on the same page is write-enabled).
//! 4. **One OS thread.** The application and the service loop of a
//!    node are fibers of one OS thread (`sp2sim::engine`; every handle
//!    to the engine is `!Send`), and a fiber switches only inside
//!    `sp2sim` calls — a send, a blocking receive, an end of a
//!    `StateCell` section. A slice borrowed from a view is plain memory
//!    access with no such call in it, so no store through a view is ever
//!    *concurrent* with protocol code: what the service loop can observe
//!    is the frame between two application statements, never a torn
//!    word. Which statement it lands between is the schedule's choice,
//!    and the protocol must not care: the service side touches frames
//!    only in `DsmState::freeze`, inside the state cell, and reads a
//!    page's words there only when the page has no published image —
//!    i.e. it has not been write-enabled since its last flush
//!    (write-enabling a flushed page snapshots the image in the section
//!    that hands out the view, and invariant 3 forbids a `WriteView`
//!    that survives a flush). So what it serves is the flushed content
//!    on every schedule. The service side never forms a `&mut [u64]`
//!    over extent memory.
//!
//! Invariant 1 makes the order of opens matter when two views of **one
//! array** are held together. Views of different arrays never interact
//! (arrays start on page boundaries, and no extent spans two). A second
//! view of the same array is safe when its pages already lie in one
//! extent — a view spanning them was opened before — or touch no extent
//! that an open view pins. When it shares a page with a pinned extent
//! and reaches beyond it, the extent would have to move, and which
//! extents earlier accesses left behind depends on the partition and on
//! the page size. So a program that needs two such ranges opens the view
//! over both first, or copies the smaller range out and drops its view
//! (Shallow's column wrap does); `tests/view_semantics.rs` runs every
//! application version across node counts and page sizes to hold that.
//!
//! Opening a view may copy a page that a held view shares — the twin or
//! the published image of a write fault ([`FrameStore::write_enable`]).
//! The copy reads the page only when no held `WriteView` covers any of
//! it, so a `&mut [f64]` still borrowed from
//! [`WriteView::slice_mut`] is never read behind its back.

use std::cell::Cell;
use std::ops::{Index, IndexMut};
use std::ptr::NonNull;
use std::rc::Rc;

use sp2sim::StateCell;

use crate::diff::Diff;
use crate::state::DsmState;

/// Global page number in the shared address space.
pub type PageId = usize;

/// A signalling NaN no computation produces: the twin of a page a
/// write-all body overwrites, so that every word it stores is a change,
/// and — with debug assertions — the words it has not stored yet.
pub(crate) const POISON: u64 = 0x7FF4_DEAD_0BAD_F00D;

/// Multiple-writer bookkeeping buffers of one page frame.
#[derive(Debug, Default)]
pub struct PageMeta {
    /// Copy saved before the first local modification; present while the
    /// node has unpublished or un-diffed local writes.
    pub twin: Option<Vec<u64>>,
    /// Published image: the page content as of this node's most recent
    /// flush covering the page, kept while the page is re-written with
    /// its diff still open. `DsmState::freeze` materializes the open range
    /// against this image (falling back to the frame's words when
    /// absent), so diff content always matches the virtual-time release
    /// point even when the request is served at whatever moment the
    /// schedule runs the service loop — the live frame may already hold
    /// the *next* epoch's writes, and leaking them backward diverges
    /// readers that are virtually ordered before those writes.
    pub published: Option<Vec<u64>>,
    /// Written since the node's last flush: the page is on
    /// `DsmState`'s dirty list, once. Raised by `DsmState::mark_dirty`
    /// at a write fault, lowered by `DsmState::flush`.
    pub dirty: bool,
}

/// A node's cached copy of one shared page: a page-sized window into its
/// extent plus the bookkeeping kept beside it. Protocol code works at
/// this granularity.
///
/// The "base" of a frame that has never received data is the zero page —
/// shared memory is zero-initialized, and every write anywhere is captured
/// by some diff, so zero-base plus all missing diffs always reconstructs
/// the consistent content.
pub struct Frame<'a> {
    /// Current content (zero page until first touch).
    pub data: &'a mut [u64],
    /// Twin and published image.
    pub meta: &'a mut PageMeta,
    /// Highest interval sequence number applied, per writer node.
    /// `applied[w] >= seq` means the write notice `(w, seq)` for this page
    /// is already reflected in `data`.
    pub applied: &'a mut [u32],
}

impl Frame<'_> {
    /// Apply an incoming diff. If the frame is twinned (has local
    /// modifications in progress), the diff is applied to the twin too so
    /// that a later local diff does not re-attribute the remote words; the
    /// published image, when present, gets the same treatment for the
    /// same reason — a twin-vs-published diff must cover exactly the
    /// local writes.
    pub fn apply_diff(&mut self, diff: &Diff) {
        diff.apply(self.data);
        if let Some(twin) = &mut self.meta.twin {
            diff.apply(twin);
        }
        if let Some(published) = &mut self.meta.published {
            diff.apply(published);
        }
    }

    /// Write `values` at page word `at`, as an incoming diff run lands:
    /// into the twin and the published image too, when present.
    pub fn put_words(&mut self, at: usize, values: &[u64]) {
        let copies = [
            self.meta.twin.as_deref_mut(),
            self.meta.published.as_deref_mut(),
        ];
        for page in std::iter::once(&mut *self.data).chain(copies.into_iter().flatten()) {
            page[at..at + values.len()].copy_from_slice(values);
        }
    }

    /// Install `words` at page word `at` — a whole-page copy (fetched,
    /// pushed or broadcast) or a pushed span — reflecting the `applied`
    /// watermarks. A write-enabled frame keeps its local in-progress
    /// modifications: reinstalled on top, with the twin reset to the copy
    /// so the eventual diff is exactly the local delta.
    pub fn install(&mut self, at: usize, words: &[u64], applied: impl IntoIterator<Item = u32>) {
        let range = at..at + words.len();
        if let Some(twin) = &mut self.meta.twin {
            let local = Diff::create(twin, self.data);
            self.data[range.clone()].copy_from_slice(words);
            twin[range].copy_from_slice(words);
            local.apply(self.data);
        } else {
            self.data[range].copy_from_slice(words);
        }
        self.raise_applied(applied);
    }

    /// Raise the per-writer watermarks to at least `other`.
    pub fn raise_applied(&mut self, other: impl IntoIterator<Item = u32>) {
        for (a, b) in self.applied.iter_mut().zip(other) {
            if b > *a {
                *a = b;
            }
        }
    }
}

/// A contiguous run of page frames in one allocation.
struct Extent {
    first_page: PageId,
    /// `len` zero-initialized words, owned: allocated as a boxed slice in
    /// [`Extent::new`], freed in `Drop`. Held as a raw pointer so that the
    /// views' pointers and the per-page slices all derive from one
    /// provenance and none invalidates another.
    words: NonNull<u64>,
    len: usize,
    /// One entry per page.
    meta: Vec<PageMeta>,
    /// `npages × nprocs` watermarks, one row per page.
    applied: Vec<u32>,
}

impl Extent {
    fn new(first_page: PageId, npages: usize, page_words: usize, nprocs: usize) -> Extent {
        let boxed = vec![0u64; npages * page_words].into_boxed_slice();
        let len = boxed.len();
        let words = NonNull::new(Box::into_raw(boxed).cast::<u64>()).expect("Box is non-null");
        Extent {
            first_page,
            words,
            len,
            meta: std::iter::repeat_with(PageMeta::default)
                .take(npages)
                .collect(),
            applied: vec![0; npages * nprocs],
        }
    }

    fn end_page(&self) -> PageId {
        self.first_page + self.meta.len()
    }

    /// Move `old`'s pages (words, twins, images, watermarks) into this
    /// extent, which must span them.
    fn absorb(&mut self, mut old: Extent, page_words: usize, nprocs: usize) {
        let at = old.first_page - self.first_page;
        assert!(old.first_page >= self.first_page && old.end_page() <= self.end_page());
        // SAFETY: both allocations are live and distinct; the assert above
        // puts `at * page_words + old.len` within `self.len`.
        unsafe {
            std::ptr::copy_nonoverlapping(
                old.words.as_ptr(),
                self.words.as_ptr().add(at * page_words),
                old.len,
            );
        }
        for (dst, src) in self.meta[at..].iter_mut().zip(old.meta.drain(..)) {
            *dst = src;
        }
        self.applied[at * nprocs..at * nprocs + old.applied.len()].copy_from_slice(&old.applied);
    }
}

impl Drop for Extent {
    fn drop(&mut self) {
        // SAFETY: `words`/`len` are exactly the boxed slice leaked in
        // `Extent::new`, and nothing else frees it.
        unsafe {
            drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                self.words.as_ptr(),
                self.len,
            )));
        }
    }
}

/// One open view, as the store sees it: a global word range.
#[derive(Clone, Copy, Debug)]
struct OpenView {
    id: u64,
    wlo: usize,
    whi: usize,
    write: bool,
}

/// A node's page frames: the extents, the page table that finds them,
/// and the registry of open views (see the module docs for the
/// invariants it enforces).
pub struct FrameStore {
    page_words: usize,
    nprocs: usize,
    /// A slab of disjoint extents in no particular order: a merge
    /// empties the slots of the extents it replaces, and `free` lists
    /// them for the next extent.
    extents: Vec<Option<Extent>>,
    free: Vec<usize>,
    /// Page → slot + 1 of the extent holding it, 0 when it has no frame;
    /// at least as long as the highest page this node has a frame for.
    table: Vec<u32>,
    /// The end of the shared address space in pages, which
    /// `Tmk::malloc_f64` moves: a table too short for a new frame grows
    /// to it at once, not page by page as first touches climb.
    pub(crate) space_end: Rc<Cell<usize>>,
    views: Vec<OpenView>,
    next_view: u64,
}

impl FrameStore {
    /// An empty store for pages of `page_words` words on `nprocs` nodes.
    pub fn new(page_words: usize, nprocs: usize) -> FrameStore {
        FrameStore {
            page_words,
            nprocs,
            extents: Vec::new(),
            free: Vec::new(),
            table: Vec::new(),
            space_end: Rc::new(Cell::new(0)),
            views: Vec::new(),
            next_view: 1,
        }
    }

    /// True when no page has a frame.
    pub fn is_empty(&self) -> bool {
        self.extents.len() == self.free.len()
    }

    #[cfg(test)]
    fn live(&self) -> impl Iterator<Item = &Extent> {
        self.extents.iter().flatten()
    }

    #[cfg(test)]
    fn extent_count(&self) -> usize {
        self.live().count()
    }

    #[cfg(test)]
    fn resident_pages(&self) -> usize {
        self.live().map(|e| e.meta.len()).sum()
    }

    /// The live extent in `slot`.
    fn extent(&self, slot: usize) -> &Extent {
        self.extents[slot]
            .as_ref()
            .expect("the page table names live extents")
    }

    fn extent_mut(&mut self, slot: usize) -> &mut Extent {
        self.extents[slot]
            .as_mut()
            .expect("the page table names live extents")
    }

    /// The slot of the extent holding `page`, if it has a frame.
    fn slot_of(&self, page: PageId) -> Option<usize> {
        let entry = *self.table.get(page)?;
        entry.checked_sub(1).map(|slot| slot as usize)
    }

    /// Where `page` lives: its extent's slot and its index in it.
    fn locate(&self, page: PageId) -> Option<(usize, usize)> {
        let slot = self.slot_of(page)?;
        Some((slot, page - self.extent(slot).first_page))
    }

    /// Put `e` in a free slot and point its pages' table entries at it.
    fn install(&mut self, e: Extent) -> usize {
        let (first, end) = (e.first_page, e.end_page());
        let slot = match self.free.pop() {
            Some(slot) => {
                self.extents[slot] = Some(e);
                slot
            }
            None => {
                self.extents.push(Some(e));
                self.extents.len() - 1
            }
        };
        if self.table.len() < end {
            self.table.resize(end.max(self.space_end.get()), 0);
        }
        let entry = u32::try_from(slot + 1).expect("fewer than 2^32 extents");
        self.table[first..end].fill(entry);
        slot
    }

    /// Like [`FrameStore::locate`], creating a one-page extent when no
    /// extent holds `page`. Never moves an existing extent.
    fn find_or_create(&mut self, page: PageId) -> (usize, usize) {
        self.locate(page).unwrap_or_else(|| {
            let e = Extent::new(page, 1, self.page_words, self.nprocs);
            (self.install(e), 0)
        })
    }

    /// The slots of the extents that hold a page of `p0..=p1`, ascending
    /// by page: the scan reads each gap page's entry and one entry per
    /// extent, skipping the rest of its pages.
    fn intersecting(&self, p0: PageId, p1: PageId) -> impl Iterator<Item = usize> + '_ {
        let end = (p1 + 1).min(self.table.len());
        let mut page = p0;
        std::iter::from_fn(move || {
            while page < end {
                match self.slot_of(page) {
                    Some(slot) => {
                        page = self.extent(slot).end_page();
                        return Some(slot);
                    }
                    None => page += 1,
                }
            }
            None
        })
    }

    /// The open views whose page span includes `page`.
    fn views_over(&self, page: PageId) -> impl Iterator<Item = &OpenView> {
        let pw = self.page_words;
        self.views
            .iter()
            .filter(move |v| v.wlo / pw <= page && page <= (v.whi - 1) / pw)
    }

    /// The words of `page`, if it has a frame.
    pub fn data(&self, page: PageId) -> Option<&[u64]> {
        let (i, k) = self.locate(page)?;
        let e = self.extent(i);
        // SAFETY: `k` is a page index inside the extent, so the range is
        // inside its live allocation, and the borrow of `self` keeps the
        // extent from being replaced. Nothing writes these words while
        // the slice lives: protocol writers need `&mut self`, and a
        // `WriteView` stores only between protocol calls of its own
        // fiber, which cannot run while this one holds the slice
        // (invariant 4).
        Some(unsafe {
            std::slice::from_raw_parts(e.words.as_ptr().add(k * self.page_words), self.page_words)
        })
    }

    /// The per-writer applied watermarks of `page`, if it has a frame.
    pub fn applied(&self, page: PageId) -> Option<&[u32]> {
        let (i, k) = self.locate(page)?;
        Some(&self.extent(i).applied[k * self.nprocs..(k + 1) * self.nprocs])
    }

    /// Do `watermarks` dominate the applied watermarks of `page`
    /// componentwise (no frame: nothing applied)? A copy of the page
    /// that reflects them then holds everything the frame does.
    pub fn dominated_by(&self, page: PageId, watermarks: impl IntoIterator<Item = u32>) -> bool {
        let mine = self.applied(page);
        mine.is_none_or(|mine| mine.iter().zip(watermarks).all(|(&m, w)| w >= m))
    }

    /// Twin, published image and dirty flag of `page`, if it has a frame.
    pub(crate) fn meta(&self, page: PageId) -> Option<&PageMeta> {
        let (i, k) = self.locate(page)?;
        Some(&self.extent(i).meta[k])
    }

    /// Mutable twin and published image of `page` — no access to its
    /// words, so the service loop may use it at any time.
    pub fn meta_mut(&mut self, page: PageId) -> Option<&mut PageMeta> {
        let (i, k) = self.locate(page)?;
        Some(&mut self.extent_mut(i).meta[k])
    }

    /// Write-enable `page`, which must have a frame, at a write fault:
    /// save a twin — made by `copy`, which may reuse a pooled buffer — if
    /// the page has none, and say so by returning true; or else, when
    /// `diff_open` says its un-materialized diff range is still open and
    /// no published image exists yet, save that image. Unlike
    /// [`FrameStore::frame_mut`] this is allowed on a page under an open
    /// view: it only reads the words, and only in the two cases that
    /// copy.
    ///
    /// # Panics
    /// When it has to copy a page that an open `WriteView` covers.
    /// That view's own write fault saved the twin — and the image, if the
    /// range was open — and invariant 3 rules out a flush since, so this
    /// is unreachable unless the bookkeeping is broken.
    pub fn write_enable(
        &mut self,
        page: PageId,
        diff_open: bool,
        copy: impl FnOnce(&[u64]) -> Vec<u64>,
    ) -> bool {
        let (i, k) = self.locate(page).expect("a write fault covers its pages");
        let meta = &self.extent(i).meta[k];
        let twinned = meta.twin.is_some();
        if twinned && !(diff_open && meta.published.is_none()) {
            return false;
        }
        if let Some(v) = self.views_over(page).find(|v| v.write) {
            panic!(
                "write fault copies page {page} under the open write view over words {}..{}",
                v.wlo, v.whi
            );
        }
        let pw = self.page_words;
        let e = self.extent_mut(i);
        // SAFETY: in bounds and kept alive as in `data`. Read views may
        // cover words of this page — shared with shared is fine; no
        // write view does (checked above), so no `&mut [f64]` over these
        // words exists, and protocol writers need `&mut self`.
        let data = unsafe { std::slice::from_raw_parts(e.words.as_ptr().add(k * pw), pw) };
        if twinned {
            e.meta[k].published = Some(data.to_vec());
        } else {
            e.meta[k].twin = Some(copy(data));
        }
        !twinned
    }

    /// The frame of `page` for a protocol update (diff apply, page
    /// install, flush), created as a one-page extent of zeroes when
    /// absent.
    ///
    /// # Panics
    /// When `page` lies under an open view (invariant 3).
    pub fn frame_mut(&mut self, page: PageId) -> Frame<'_> {
        if let Some(v) = self.views_over(page).next() {
            panic!(
                "protocol update of page {page} under an open view over words {}..{}: \
                 drop the view before the consistency action",
                v.wlo, v.whi
            );
        }
        let (i, k) = self.find_or_create(page);
        let (pw, n) = (self.page_words, self.nprocs);
        let e = self.extent_mut(i);
        // SAFETY: in bounds and kept alive as in `data`; `&mut self` rules
        // out every other protocol borrow, and the check above rules out
        // a view over any word of this page, so the slice is exclusive.
        let data = unsafe { std::slice::from_raw_parts_mut(e.words.as_ptr().add(k * pw), pw) };
        Frame {
            data,
            meta: &mut e.meta[k],
            applied: &mut e.applied[k * n..(k + 1) * n],
        }
    }

    /// Make one extent cover pages `p0..=p1`, merging every extent the
    /// range intersects into a new one over their hull (gaps zero), whose
    /// slot the table then names for every page of the hull. A range one
    /// extent holds already costs one table entry.
    ///
    /// # Panics
    /// When an extent that would be replaced is pinned by an open view
    /// (invariant 1).
    pub fn cover(&mut self, p0: PageId, p1: PageId) {
        if self
            .slot_of(p0)
            .is_some_and(|slot| p1 < self.extent(slot).end_page())
        {
            return;
        }
        let (mut first, mut end) = (p0, p1 + 1);
        let pw = self.page_words;
        for slot in self.intersecting(p0, p1) {
            let e = self.extent(slot);
            first = first.min(e.first_page);
            end = end.max(e.end_page());
            let pinned = self
                .views
                .iter()
                .find(|v| v.wlo / pw < e.end_page() && e.first_page <= (v.whi - 1) / pw);
            if let Some(v) = pinned {
                panic!(
                    "view over pages {p0}..={p1} needs the extent of pages {}..{} moved, \
                     which an open view over words {}..{} pins: open the wider view first, \
                     or copy the held range out and drop its view",
                    e.first_page,
                    e.end_page(),
                    v.wlo,
                    v.whi
                );
            }
        }
        let mut merged = Extent::new(first, end - first, pw, self.nprocs);
        let mut page = first;
        loop {
            let Some(slot) = self.intersecting(page, end - 1).next() else {
                break;
            };
            let old = self.extents[slot].take().expect("a live extent");
            self.free.push(slot);
            page = old.end_page();
            merged.absorb(old, pw, self.nprocs);
        }
        self.install(merged);
    }

    /// Register a view over global words `wlo..whi` (non-empty, inside
    /// one extent — call [`FrameStore::cover`] first) and return the
    /// address of word `wlo` with the view's id.
    ///
    /// # Panics
    /// When the range overlaps an open view and either is a write view
    /// (invariant 2).
    fn open_view(&mut self, wlo: usize, whi: usize, write: bool) -> (NonNull<u64>, u64) {
        assert!(wlo < whi);
        if let Some(v) = self
            .views
            .iter()
            .find(|v| (write || v.write) && wlo < v.whi && v.wlo < whi)
        {
            panic!(
                "{} view over words {wlo}..{whi} overlaps the open {} view over words {}..{}",
                if write { "write" } else { "read" },
                if v.write { "write" } else { "read" },
                v.wlo,
                v.whi
            );
        }
        let pw = self.page_words;
        let (i, _) = self
            .locate(wlo / pw)
            .expect("cover() ran before the view is opened");
        let e = self.extent(i);
        let off = wlo - e.first_page * pw;
        assert!(
            off + (whi - wlo) <= e.len,
            "view must lie inside one extent"
        );
        // SAFETY: `off` is inside the extent's allocation (assert above).
        let ptr = unsafe { NonNull::new_unchecked(e.words.as_ptr().add(off)) };
        let id = self.next_view;
        self.next_view += 1;
        self.views.push(OpenView {
            id,
            wlo,
            whi,
            write,
        });
        (ptr, id)
    }

    fn close_view(&mut self, id: u64) {
        if let Some(i) = self.views.iter().position(|v| v.id == id) {
            self.views.swap_remove(i);
        }
    }

    /// Invariant 3: panic if a view is open at consistency action `what`.
    pub fn assert_quiescent(&self, what: &str) {
        if let Some(v) = self.views.first() {
            panic!(
                "{what} with a {} view open over words {}..{}: a view is a window onto the \
                 frames, drop it before any consistency action",
                if v.write { "write" } else { "read" },
                v.wlo,
                v.whi
            );
        }
    }
}

/// What both view types are: where the words are, and how to unpin them.
pub(crate) struct Window<'t> {
    state: &'t StateCell<DsmState>,
    ptr: NonNull<f64>,
    len: usize,
    /// First global element index covered.
    lo: usize,
    /// Registry id; 0 for an empty view, which pins nothing.
    id: u64,
}

impl<'t> Window<'t> {
    /// Open a window onto global words `wlo..whi` of `st`, the state
    /// behind `state` (locked by the caller), indexed from element `lo`.
    /// The fault engine in `dsm.rs` is the caller, after it has made the
    /// pages consistent and, for `write`, write-enabled them.
    pub(crate) fn open(
        state: &'t StateCell<DsmState>,
        st: &mut DsmState,
        wlo: usize,
        whi: usize,
        lo: usize,
        write: bool,
    ) -> Window<'t> {
        let (ptr, id) = if wlo == whi {
            (NonNull::dangling(), 0)
        } else {
            // Shared words are stored as the bit patterns of f64s; the
            // two types have the same size and alignment.
            let (p, id) = st.frames.open_view(wlo, whi, write);
            (p.cast::<f64>(), id)
        };
        Window {
            state,
            ptr,
            len: whi - wlo,
            lo,
            id,
        }
    }

    fn slice(&self) -> &[f64] {
        // SAFETY: `ptr` addresses `len` words inside an extent that stays
        // allocated and unmoved while this view is registered (invariant
        // 1), or is dangling with `len == 0`. Every bit pattern is a
        // valid f64. No `WriteView` overlaps these words unless `self` is
        // that view (invariant 2), and protocol code does not write them
        // while the view is open (invariants 3 and 4).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for Window<'_> {
    fn drop(&mut self) {
        if self.id != 0 {
            self.state.lock().frames.close_view(self.id);
        }
    }
}

/// A read-only window onto an index range of a shared array, indexed by
/// **global** element index. The pages under it were made consistent
/// when it was opened; it must be dropped before the next consistency
/// action (barrier, lock operation, fork/join, validate, broadcast).
pub struct ReadView<'t>(pub(crate) Window<'t>);

impl ReadView<'_> {
    /// First global index covered.
    pub fn start(&self) -> usize {
        self.0.lo
    }

    /// The data as a slice (element `i` of the slice is global index
    /// `start() + i`).
    pub fn slice(&self) -> &[f64] {
        self.0.slice()
    }
}

impl Index<usize> for ReadView<'_> {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.slice()[i - self.0.lo]
    }
}

/// A writable window onto an index range of a shared array, indexed by
/// **global** element index. The pages were write-enabled (twinned) when
/// the view was opened, exactly like a write fault; stores land in the
/// page frames directly and dropping the view copies nothing. It must be
/// dropped before the next consistency action, and its range may overlap
/// no other open view.
pub struct WriteView<'t>(pub(crate) Window<'t>);

impl WriteView<'_> {
    /// First global index covered.
    pub fn start(&self) -> usize {
        self.0.lo
    }

    /// Mutable slice access (element `i` is global index `start() + i`).
    /// Do not keep the borrow across opening another view that shares a
    /// page with this one (see the module docs).
    pub fn slice_mut(&mut self) -> &mut [f64] {
        // SAFETY: as in `Window::slice`; in addition no other view
        // overlaps these words at all (invariant 2) and `&mut self` makes
        // this the only slice of this view, so the borrow is exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.0.ptr.as_ptr(), self.0.len) }
    }

    /// Read-only slice access.
    pub fn slice(&self) -> &[f64] {
        self.0.slice()
    }
}

impl Index<usize> for WriteView<'_> {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        &self.slice()[i - self.0.lo]
    }
}

impl IndexMut<usize> for WriteView<'_> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        let lo = self.0.lo;
        &mut self.slice_mut()[i - lo]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::Diff;

    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::ops::Range;
    use std::panic::AssertUnwindSafe;

    const PW: usize = 8;

    fn store() -> FrameStore {
        FrameStore::new(PW, 2)
    }

    #[test]
    fn fresh_frame_is_zero() {
        let mut s = store();
        let f = s.frame_mut(5);
        assert_eq!(f.data, &[0; PW]);
        assert!(f.meta.twin.is_none());
        assert_eq!(f.applied, &[0; 2]);
        assert_eq!((s.extent_count(), s.resident_pages()), (1, 1));
        assert!(s.data(4).is_none());
    }

    #[test]
    fn apply_diff_updates_twin_and_published_image_too() {
        let mut s = store();
        let mut f = s.frame_mut(0);
        f.meta.twin = Some(f.data.to_vec());
        f.meta.published = Some(f.data.to_vec());
        let d = Diff::create(&[0; PW], &[0, 7, 0, 0, 0, 0, 0, 0]);
        f.apply_diff(&d);
        assert_eq!(f.data[1], 7);
        assert_eq!(f.meta.twin.as_ref().unwrap()[1], 7);
        assert_eq!(f.meta.published.as_ref().unwrap()[1], 7);
    }

    #[test]
    fn apply_diff_without_twin() {
        let mut s = store();
        let mut f = s.frame_mut(0);
        f.apply_diff(&Diff::create(&[0; PW], &[9, 0, 0, 9, 0, 0, 0, 0]));
        assert_eq!(f.data, &[9, 0, 0, 9, 0, 0, 0, 0]);
        assert!(f.meta.twin.is_none());
    }

    #[test]
    fn single_page_touches_make_one_page_extents_in_page_order() {
        let mut s = store();
        for p in [9, 3, 6, 3] {
            s.frame_mut(p).data[0] = p as u64;
        }
        assert_eq!(s.extent_count(), 3);
        // Slab order is not page order: compare the pages as a set.
        let mut pages: Vec<_> = s.live().map(|e| (e.first_page, e.end_page())).collect();
        pages.sort_unstable();
        assert_eq!(pages, vec![(3, 4), (6, 7), (9, 10)]);
        assert_eq!(s.data(6).unwrap()[0], 6);
    }

    #[test]
    fn cover_merges_the_hull_keeps_content_and_zero_fills_gaps() {
        let mut s = store();
        // Pages 2 and 5 exist with content and bookkeeping; 3, 4, 6 do not.
        {
            let f = s.frame_mut(2);
            f.data[1] = 21;
            f.applied[1] = 4;
            f.meta.twin = Some(vec![1; PW]);
        }
        {
            let f = s.frame_mut(5);
            f.data[7] = 57;
            f.meta.published = Some(vec![2; PW]);
        }
        s.frame_mut(9).data[0] = 90; // outside the range: untouched
        s.cover(3, 6);
        // Only page 5 intersects 3..=6: hull is 3..7; page 2 stays apart.
        assert_eq!(s.extent_count(), 3);
        s.cover(2, 4);
        assert_eq!(s.extent_count(), 2, "2 and 3..7 merged into 2..7");
        assert_eq!(s.resident_pages(), 5 + 1);
        assert_eq!(s.data(2).unwrap()[1], 21);
        assert_eq!(s.applied(2).unwrap(), &[0, 4]);
        assert_eq!(s.meta(2).unwrap().twin.as_deref(), Some(&[1; PW][..]));
        assert_eq!(s.data(5).unwrap()[7], 57);
        assert_eq!(s.meta(5).unwrap().published.as_deref(), Some(&[2; PW][..]));
        for gap in [3, 4, 6] {
            assert_eq!(s.data(gap).unwrap(), &[0; PW], "gap page {gap} is zero");
            assert_eq!(s.applied(gap).unwrap(), &[0, 0]);
            assert!(s.meta(gap).unwrap().twin.is_none());
        }
        assert_eq!(s.data(9).unwrap()[0], 90);
        // Covered already: nothing moves.
        let words = |s: &FrameStore| s.extent(s.locate(2).unwrap().0).words;
        let before = words(&s);
        s.cover(2, 6);
        assert_eq!(words(&s), before);
        // Frames re-point into the merged extent: a store through one page
        // handle is visible through the extent-wide view pointer.
        s.frame_mut(4).data[0] = 44;
        let (ptr, id) = s.open_view(2 * PW, 7 * PW, false);
        // SAFETY: the view spans the extent just covered; test only.
        let words = unsafe { std::slice::from_raw_parts(ptr.as_ptr(), 5 * PW) };
        assert_eq!((words[1], words[2 * PW], words[3 * PW + 7]), (21, 44, 57));
        s.close_view(id);
    }

    #[test]
    #[should_panic(expected = "pins")]
    fn merging_a_pinned_extent_panics() {
        let mut s = store();
        s.cover(0, 1);
        let _v = s.open_view(0, PW, false);
        s.cover(1, 2);
    }

    #[test]
    #[should_panic(expected = "overlaps the open read view")]
    fn write_view_over_an_open_views_words_panics() {
        let mut s = store();
        s.cover(0, 0);
        let _r = s.open_view(0, 4, false);
        s.open_view(3, 6, true);
    }

    #[test]
    fn views_on_one_page_with_disjoint_words_and_overlapping_reads_are_fine() {
        let mut s = store();
        s.cover(0, 0);
        let (_, a) = s.open_view(0, 4, true);
        let (_, b) = s.open_view(4, 8, true);
        s.close_view(a);
        let (_, c) = s.open_view(0, 4, false);
        let (_, d) = s.open_view(2, 4, false);
        assert_eq!(s.views.len(), 3);
        for id in [b, c, d] {
            s.close_view(id);
        }
        s.assert_quiescent("test");
    }

    #[test]
    #[should_panic(expected = "barrier with a write view open")]
    fn quiescence_check_names_the_action() {
        let mut s = store();
        s.cover(0, 0);
        s.open_view(0, 4, true);
        s.assert_quiescent("barrier");
    }

    #[test]
    fn write_enable_twins_once_and_reads_nothing_of_a_twinned_page() {
        let mut s = store();
        s.frame_mut(0).data[2] = 5;
        assert!(s.write_enable(0, false, |words| words.to_vec()));
        assert_eq!(s.meta(0).unwrap().twin.as_ref().unwrap()[2], 5);
        // Twinned, nothing open: no copy — and so no read of the page,
        // which a second write view sharing it relies on.
        let _w = s.open_view(0, 4, true);
        assert!(!s.write_enable(0, false, |_| unreachable!("twinned")));
        assert!(s.meta(0).unwrap().published.is_none());
    }

    #[test]
    fn write_enable_saves_the_published_image_while_the_diff_range_is_open() {
        let mut s = store();
        s.frame_mut(0).data[2] = 5;
        assert!(s.write_enable(0, true, |words| words.to_vec()));
        assert!(s.meta(0).unwrap().published.is_none(), "the twin is enough");
        assert!(!s.write_enable(0, true, |_| unreachable!("twinned")));
        assert_eq!(s.meta(0).unwrap().published.as_ref().unwrap()[2], 5);
    }

    #[test]
    #[should_panic(expected = "write fault copies page 0 under the open write view")]
    fn a_write_fault_copy_under_a_write_view_panics() {
        let mut s = store();
        s.cover(0, 0);
        // A write view registered without its write fault: bookkeeping
        // the fault engine never produces.
        s.open_view(0, 4, true);
        s.write_enable(0, false, |words| words.to_vec());
    }

    #[test]
    #[should_panic(expected = "protocol update of page 1 under an open view")]
    fn protocol_update_under_a_view_panics() {
        let mut s = store();
        s.cover(0, 2);
        s.open_view(PW + 2, PW + 3, false);
        s.frame_mut(1);
    }

    /// One page as the model holds it.
    struct ModelPage {
        words: Vec<u64>,
        applied: Vec<u32>,
        twin: Option<Vec<u64>>,
    }

    /// What a [`FrameStore`] must hold, kept the simple way: each page's
    /// words, watermarks and twin; the extents as sorted page ranges,
    /// merged by the rule `cover` replaced a sorted table with; the open
    /// views.
    #[derive(Default)]
    struct Model {
        pages: BTreeMap<PageId, ModelPage>,
        extents: Vec<Range<PageId>>,
        /// `(id, wlo, whi, write)` of each open view.
        views: Vec<(u64, usize, usize, bool)>,
    }

    impl Model {
        fn page(&mut self, p: PageId) -> &mut ModelPage {
            self.pages.entry(p).or_insert_with(|| ModelPage {
                words: vec![0; PW],
                applied: vec![0; 2],
                twin: None,
            })
        }

        fn under_a_view(&self, p: PageId) -> bool {
            self.views
                .iter()
                .any(|&(_, lo, hi, _)| lo / PW <= p && p <= (hi - 1) / PW)
        }

        /// A frame for page `p`: a one-page extent if none holds it.
        fn touch(&mut self, p: PageId) {
            if !self.extents.iter().any(|e| e.contains(&p)) {
                let at = self.extents.partition_point(|e| e.start < p);
                self.extents.insert(at, p..p + 1);
                self.page(p);
            }
        }

        /// What `cover(p0, p1)` does: `Ok(true)` if one extent holds the
        /// range already, `Err(())` if the merge would move a pinned
        /// extent; else merge (gaps zero) and `Ok(false)`.
        fn cover(&mut self, p0: PageId, p1: PageId) -> Result<bool, ()> {
            if self.extents.iter().any(|e| e.start <= p0 && p1 < e.end) {
                return Ok(true);
            }
            let (hit, keep): (Vec<_>, Vec<_>) = self
                .extents
                .drain(..)
                .partition(|e| e.start <= p1 && p0 < e.end);
            let pinned = hit
                .iter()
                .any(|e| (e.start..e.end).any(|p| self.under_a_view(p)));
            if pinned {
                self.extents = keep.into_iter().chain(hit).collect();
                self.extents.sort_by_key(|e| e.start);
                return Err(());
            }
            let first = hit.iter().map(|e| e.start).fold(p0, PageId::min);
            let end = hit.iter().map(|e| e.end).fold(p1 + 1, PageId::max);
            for p in first..end {
                self.page(p);
            }
            self.extents = keep;
            let at = self.extents.partition_point(|e| e.start < first);
            self.extents.insert(at, first..end);
            Ok(false)
        }
    }

    /// The store against the model after one step (`at` names it).
    fn check(s: &FrameStore, m: &Model, at: &str) {
        for (p, &entry) in s.table.iter().enumerate() {
            let Some(slot) = entry.checked_sub(1) else {
                continue;
            };
            let e = s.extents[slot as usize].as_ref();
            assert!(
                e.is_some_and(|e| e.first_page <= p && p < e.end_page()),
                "page table: page {p} names slot {slot}, which does not hold it, {at}"
            );
        }
        let mut live: Vec<_> = s
            .extents
            .iter()
            .enumerate()
            .filter_map(|(slot, e)| Some((slot, e.as_ref()?)))
            .map(|(slot, e)| {
                for p in e.first_page..e.end_page() {
                    assert_eq!(
                        s.table.get(p).copied(),
                        Some(slot as u32 + 1),
                        "page table: page {p} of slot {slot}'s extent, {at}"
                    );
                }
                e.first_page..e.end_page()
            })
            .collect();
        live.sort_by_key(|e| e.start);
        assert!(
            live.windows(2).all(|w| w[0].end <= w[1].start),
            "page table: extents {live:?} overlap, {at}"
        );
        assert_eq!(live, m.extents, "page table: extents, {at}");
        for p in 0..2 * PAGES {
            let want = m.pages.get(&p);
            assert_eq!(
                s.data(p),
                want.map(|w| &w.words[..]),
                "page table: data of {p}, {at}"
            );
            assert_eq!(
                s.applied(p),
                want.map(|w| &w.applied[..]),
                "page table: applied of {p}, {at}"
            );
            assert_eq!(
                s.meta(p).map(|meta| meta.twin.as_deref()),
                want.map(|w| w.twin.as_deref()),
                "page table: twin of {p}, {at}"
            );
        }
    }

    const PAGES: usize = 24;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random programs of single-page updates (some far beyond the
        /// table's length), covers, and view opens and closes: after
        /// every step the table names a live extent spanning each page
        /// it holds, extents are disjoint and laid out as the model's,
        /// and every page reads as the model. A range already covered
        /// keeps its words where they were; a merge over a pinned extent
        /// panics.
        #[test]
        fn prop_page_table_matches_the_model(
            ops in prop::collection::vec((0u8..8, 0usize..PAGES, 0usize..PAGES, 0u64..1 << 20), 1..60),
        ) {
            let (mut s, mut m) = (store(), Model::default());
            for (step, &(kind, a, b, x)) in ops.iter().enumerate() {
                let at = format!("at step {step} of {ops:?}");
                let (p0, p1) = (a.min(b), a.max(b));
                match kind {
                    // A protocol update, near or far.
                    0..=2 => {
                        let p = if kind == 2 { a + PAGES } else { a };
                        if m.under_a_view(p) {
                            continue;
                        }
                        let f = s.frame_mut(p);
                        let (w, n) = (x as usize % PW, x as usize % 2);
                        f.data[w] = x;
                        f.applied[n] = x as u32;
                        let twin = (x % 3 == 0).then(|| vec![x; PW]);
                        f.meta.twin.clone_from(&twin);
                        m.touch(p);
                        let page = m.page(p);
                        page.words[w] = x;
                        page.applied[n] = x as u32;
                        page.twin = twin;
                    }
                    // A cover alone.
                    3 => {
                        let before = s.locate(p0).map(|(slot, _)| s.extent(slot).words);
                        match m.cover(p0, p1) {
                            Ok(covered) => {
                                s.cover(p0, p1);
                                if covered {
                                    let after = s.locate(p0).map(|(slot, _)| s.extent(slot).words);
                                    prop_assert_eq!(after, before, "covered range moved {}", at);
                                }
                            }
                            Err(()) => {
                                let r = std::panic::catch_unwind(AssertUnwindSafe(|| s.cover(p0, p1)));
                                let msg = r.err().and_then(|e| e.downcast::<String>().ok());
                                prop_assert!(
                                    msg.is_some_and(|msg| msg.contains("pins")),
                                    "a merge over a pinned extent did not panic {}", at
                                );
                            }
                        }
                    }
                    // Open a read or write view over words of `p0..=p1`,
                    // covering them first as a fault does.
                    4..=6 => {
                        let write = kind == 6;
                        let wlo = p0 * PW + x as usize % PW;
                        let whi = (p1 * PW + PW - (x as usize / PW) % PW).max(wlo + 1);
                        let clash = m
                            .views
                            .iter()
                            .any(|&(_, lo, hi, w)| (write || w) && wlo < hi && lo < whi);
                        if clash || m.cover(p0, p1).is_err() {
                            continue;
                        }
                        s.cover(p0, p1);
                        let (ptr, id) = s.open_view(wlo, whi, write);
                        // SAFETY: the view spans `wlo..whi` inside one
                        // pinned extent; nothing else touches it here.
                        let words = unsafe { std::slice::from_raw_parts_mut(ptr.as_ptr(), whi - wlo) };
                        for (i, &got) in words.iter().enumerate() {
                            let (p, k) = ((wlo + i) / PW, (wlo + i) % PW);
                            prop_assert_eq!(got, m.pages[&p].words[k], "view word {} {}", wlo + i, at);
                        }
                        if write {
                            words[0] = x;
                            m.page(wlo / PW).words[wlo % PW] = x;
                        }
                        m.views.push((id, wlo, whi, write));
                    }
                    // Close a view.
                    _ => {
                        if !m.views.is_empty() {
                            let (id, ..) = m.views.swap_remove(x as usize % m.views.len());
                            s.close_view(id);
                        }
                    }
                }
                check(&s, &m, &at);
            }
        }
    }
}
