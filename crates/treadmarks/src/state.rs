//! The per-node DSM state machine, shared between the application and
//! the protocol service loop through a `sp2sim::StateCell`.
//!
//! ## Diff lifecycle (lazy creation, like the original system)
//!
//! At a release (`flush`) only the write notices are published: the page
//! keeps its twin and stays writable, and the per-page [`OpenRange`]
//! metadata records which of this node's intervals the eventual diff will
//! cover. The diff is **materialized on first request** by comparing the
//! page against its twin; the page is then re-protected (twin dropped),
//! so the next local write takes a fresh fault and twin. Consequences,
//! matching real TreadMarks:
//!
//! * a page nobody ever fetches (the interior of Jacobi's partition)
//!   costs *nothing* per interval — one twin, ever;
//! * a page fetched every epoch (boundary columns) pays one fault +
//!   twin + diff per epoch — the "overhead of detecting modifications"
//!   the paper quantifies;
//! * storage stays bounded: un-requested intervals coalesce into one
//!   open range per page.
//!
//! Ranges are applied in `(lamport, node)` order, a linear extension of
//! happens-before (DESIGN.md, "The order diffs apply in"); concurrent
//! intervals only ever write disjoint words (the multiple-writer
//! guarantee) so their relative order is irrelevant. A materialized
//! diff may include words of the writer's *open* epoch; a
//! data-race-free program never reads such words before its next
//! synchronization, and the notice/`applied` bookkeeping refetches the
//! final values afterwards (validated by the bitwise cross-version
//! application tests).

use std::collections::{BTreeMap, VecDeque};

use sp2sim::{CostModel, Payload, ReduceOp, Tree, VTime};

use crate::config::TmkConfig;
use crate::diff::{Diff, DiffBatch, Pending, Sealed};
use crate::hlrc::{HomePage, HomeState};
use crate::hole::{self, Holes};
use crate::interval::Interval;
use crate::page::{FrameStore, PageId, POISON};
use crate::profile::{PageProfile, WriterWindow};
use crate::protocol;
use crate::race::{IntervalWrites, RaceLog};
use crate::stats::DsmStats;
use crate::vc::Vc;

/// Open (not yet materialized) diff range for a page: pure metadata.
///
/// Real TreadMarks creates diffs *lazily*: at a release only the write
/// notice is published; the page keeps its twin and stays writable, so a
/// page nobody ever requests costs nothing per interval. The diff is
/// materialized from `twin -> data` the first time someone asks.
#[derive(Debug, Clone, Copy)]
pub struct OpenRange {
    /// First interval sequence number covered.
    pub lo: u32,
    /// Last interval sequence number covered.
    pub hi: u32,
    /// Lamport stamp of the `lo` interval, the one that opened the range.
    pub lamport: u64,
}

/// An immutable (frozen) diff covering intervals `lo..=hi` of this node
/// for one page.
#[derive(Clone, Debug)]
pub struct DiffRange {
    /// First covered sequence number.
    pub lo: u32,
    /// Last covered sequence number.
    pub hi: u32,
    /// Lamport stamp of the `lo` interval ([`OpenRange::lamport`]).
    pub lamport: u64,
    /// Frozen by a foreign notice, carried by no message yet: the first
    /// message that carries it pays for its creation.
    pub unpaid: bool,
    /// The diff: a window onto the release buffer of the batch that
    /// froze it, or onto the message it arrived in (cloning it is a
    /// reference-count bump).
    pub diff: Diff,
}

/// Which of a page's ranges a message of diff entries carries
/// ([`DsmState::put_entries`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Carry {
    /// Every range from the interval asked for on: a diff response.
    History,
    /// The newest range reaching it: a home flush, a push.
    Newest,
}

/// Diff storage for one page this node has written.
#[derive(Debug, Default)]
pub struct PageDiffs {
    /// Frozen ranges in increasing `lo` order: the whole history under
    /// LRC, only the newest one under HLRC (`hlrc::on_release`).
    pub frozen: Vec<DiffRange>,
    /// The open (unmaterialized) range, if any interval since the last
    /// freeze wrote this page.
    pub open: Option<OpenRange>,
}

/// Write notices, as two watermarks per (page, writer).
///
/// A write notice does one thing: it invalidates a page. What the
/// protocol asks afterwards compares how far a writer's notices reach
/// with how far the frame has applied them, so the table keeps no
/// history: per (page, writer) the **latest** notice sequence and a
/// **first-unapplied hint**, in two flat arrays indexed `page * n +
/// writer`, and per page the sharing profile's writer window.
///
/// * *Is anything missing?* `latest > applied` for some writer other
///   than this node ([`NoticeTable::any_missing`]).
/// * *What is the highest notice, was the page ever named?* The
///   [`NoticeTable::latest`] row ([`NoticeTable::is_named`]).
/// * *What is the first notice above `applied`?*
///   [`NoticeTable::first_after`] — the one question that needs
///   history, which the interval log holds: interval `s` of writer `w`
///   is `log[w][s - 1]`, its pages sorted.
///
/// The hint answers the last one without the log in the steady state:
/// [`NoticeTable::push`] sets it when it is 0; a query with `latest <=
/// applied` clears it; one with `hint > applied` returns it; otherwise
/// (`applied` passed the hint with no query in between) the log is
/// scanned from `applied` and the result stored. It is exact because
/// `applied` only grows and the hint is only ever set to the first
/// notice above the `applied` of the moment (DESIGN.md, "Write
/// notices").
#[derive(Debug)]
pub struct NoticeTable {
    /// Cluster size: the row stride of `latest` and `first`.
    n: usize,
    /// `latest[page * n + w]`: highest interval of `w` naming the page
    /// (0: none).
    latest: Vec<u32>,
    /// `first[page * n + w]`: the hint (0: not known).
    first: Vec<u32>,
    /// Sharing-profile writer windows, one per page (always on;
    /// host-side only — see [`crate::profile`]).
    writers: Vec<WriterWindow>,
}

impl NoticeTable {
    /// Empty table for a cluster of `n`.
    pub fn new(n: usize) -> NoticeTable {
        NoticeTable {
            n,
            latest: Vec::new(),
            first: Vec::new(),
            writers: Vec::new(),
        }
    }

    fn grow(&mut self, pages: usize) {
        if pages > self.writers.len() {
            self.latest.resize(pages * self.n, 0);
            self.first.resize(pages * self.n, 0);
            self.writers.resize(pages, WriterWindow::default());
        }
    }

    /// Record that interval `seq` of `writer`, integrated during local
    /// epoch `epoch`, named `pages` (ascending, the interval's own wire
    /// words; per writer, intervals arrive in ascending `seq` order).
    pub fn push(&mut self, pages: &[u64], writer: usize, seq: u32, epoch: u64) {
        debug_assert!(
            pages.windows(2).all(|w| w[0] < w[1]),
            "an interval's page list is sorted"
        );
        let Some(&last) = pages.last() else {
            return;
        };
        self.grow(last as usize + 1);
        for p in pages.iter().map(|&p| p as usize) {
            let at = p * self.n + writer;
            debug_assert!(
                self.latest[at] < seq,
                "per-creator notices arrive in ascending order"
            );
            self.latest[at] = seq;
            if self.first[at] == 0 {
                self.first[at] = seq;
            }
            self.writers[p].record(writer, epoch);
        }
    }

    /// The highest notice per writer for `page` (`None`: never named).
    pub fn latest(&self, page: PageId) -> Option<&[u32]> {
        self.latest.get(page * self.n..(page + 1) * self.n)
    }

    /// True if any notice names `page`.
    pub fn is_named(&self, page: PageId) -> bool {
        self.latest(page)
            .is_some_and(|row| row.iter().any(|&s| s > 0))
    }

    /// True if some writer other than `me` has a notice for `page` above
    /// the frame's `applied` watermarks (`None`: no frame, nothing
    /// applied) — the page is invalid.
    pub fn any_missing(&self, page: PageId, me: usize, applied: Option<&[u32]>) -> bool {
        self.latest(page).is_some_and(|latest| {
            (0..self.n).any(|w| w != me && latest[w] > applied.map_or(0, |a| a[w]))
        })
    }

    /// First notice of `writer` for `page` strictly above `applied`,
    /// which must be the frame's own watermark for that writer: the hint
    /// is exact only because successive calls see it grow. `log` is the
    /// writer's interval log, read only when the hint is stale.
    pub fn first_after(
        &mut self,
        page: PageId,
        writer: usize,
        applied: u32,
        log: &[Interval],
    ) -> Option<u32> {
        let at = page * self.n + writer;
        let latest = *self.latest.get(at)?;
        let hint = &mut self.first[at];
        if latest <= applied {
            *hint = 0;
            return None;
        }
        if *hint <= applied {
            *hint = log[applied as usize..latest as usize]
                .iter()
                .find(|iv| iv.pages().binary_search(&(page as u64)).is_ok())
                .expect("the interval of the latest notice names the page")
                .seq();
        }
        Some(*hint)
    }

    /// The writer windows, by page (for `take_sharing`).
    pub(crate) fn writers_mut(&mut self) -> &mut [WriterWindow] {
        &mut self.writers
    }
}

/// Recycled page-sized `Vec<u64>` buffers — the diff-path scratch arena.
///
/// Twins are created on every write fault and dropped at every diff
/// materialization; at steady state that is one allocation plus one
/// deallocation per fetched page per epoch. The arena parks dropped
/// buffers instead and re-issues them on the next fault, so steady-state
/// epochs allocate nothing in the diff path. Hit/miss/footprint counters
/// land in [`DsmStats`] so reuse is visible in every report.
#[derive(Debug, Default)]
pub struct DiffScratch {
    bufs: Vec<Vec<u64>>,
    held_bytes: u64,
}

impl DiffScratch {
    /// Take a buffer holding a copy of `src` (the twin-creation shape).
    /// Served from the pool when possible; the copy itself is unavoidable
    /// — it *is* the twin.
    pub fn take_copy(&mut self, src: &[u64], stats: &mut DsmStats) -> Vec<u64> {
        let mut buf = self.take(src.len(), stats);
        buf.extend_from_slice(src);
        buf
    }

    /// Take a buffer of `len` poison words: the twin of a page a
    /// write-all body overwrites (`DsmState::open_armed`).
    pub fn take_poison(&mut self, len: usize, stats: &mut DsmStats) -> Vec<u64> {
        let mut buf = self.take(len, stats);
        buf.resize(len, POISON);
        buf
    }

    /// An empty buffer for `len` words, pooled when possible.
    fn take(&mut self, len: usize, stats: &mut DsmStats) -> Vec<u64> {
        let mut buf = match self.bufs.pop() {
            Some(b) => {
                self.held_bytes -= 8 * b.capacity() as u64;
                stats.arena_hits += 1;
                b
            }
            None => {
                stats.arena_misses += 1;
                Vec::with_capacity(len)
            }
        };
        buf.clear();
        buf
    }

    /// Return a retired buffer (a dropped twin) to the pool.
    pub fn put(&mut self, buf: Vec<u64>, stats: &mut DsmStats) {
        if buf.capacity() == 0 {
            return;
        }
        self.held_bytes += 8 * buf.capacity() as u64;
        if self.held_bytes > stats.arena_peak_bytes {
            stats.arena_peak_bytes = self.held_bytes;
        }
        self.bufs.push(buf);
    }

    /// Buffers currently parked.
    pub fn pooled(&self) -> usize {
        self.bufs.len()
    }
}

/// Local state of one lock.
///
/// The **token** is what makes the distributed queue deadlock-free: it
/// lives at the last holder after a release and moves with each grant.
/// A node that still has the token but is not holding the lock must
/// grant an incoming (forwarded) request immediately — even if its own
/// re-acquire is outstanding; that request is queued later in the chain
/// by the manager's serialization, so granting keeps the chain acyclic.
#[derive(Debug, Default)]
pub struct LockLocal {
    /// This node possesses the lock token.
    pub has_token: bool,
    /// Application currently holds the lock.
    pub held: bool,
    /// Virtual time of the last local release.
    pub release_vt: VTime,
    /// Requests forwarded to us while we held the lock (or while our own
    /// re-acquire was chasing the token); granted at release.
    pub queue: VecDeque<QueuedReq>,
}

/// A queued remote lock request.
#[derive(Debug)]
pub struct QueuedReq {
    /// Requesting node.
    pub requester: usize,
    /// Requester's vector clock at request time.
    pub vc: Vc,
    /// Arrival time of the request at this node.
    pub arrival: VTime,
}

/// One in-flight direct reduction at a combine-tree node: the children's
/// partials (combined by the service loop) plus the local partial
/// (deposited by the application). Whichever side completes the
/// slot forwards the combined value up the tree.
#[derive(Debug, Default)]
pub struct ReduceSlot {
    /// Subtree partials received from children, keyed by child rank.
    pub parts: BTreeMap<usize, Vec<f64>>,
    /// This node's own partial, once deposited.
    pub local: Option<Vec<f64>>,
}

/// The pages a hinted loop body declared it writes, armed by `Tmk::validate`
/// until this node's next release.
#[derive(Debug, Default)]
struct Armed {
    /// The body's loop id, which a broken contract's panic names.
    loop_id: usize,
    /// Ascending and disjoint.
    pages: Vec<ArmedPage>,
    /// This node released since the pages were armed: none may be left.
    released: bool,
}

/// One armed page.
#[derive(Clone, Copy, Debug)]
struct ArmedPage {
    page: PageId,
    /// Write-all: the body stores every word before it reads any. Or
    /// else a validated write: a write of part of the page, or one that
    /// reads first.
    whole: bool,
    /// A view over it has been opened — for a validated write, a write
    /// view.
    opened: bool,
}

/// A page's place in derived privatization (`Tmk::privatize`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) enum Privacy {
    #[default]
    Shared,
    /// Private to node `.0`.
    Private(usize),
    /// Private to this node, which wrote it since.
    Written,
    /// Was private to node `.0`, and not fetched from there since.
    Stale(usize),
}

/// Is `page` private to node `me`, by its `privacy` table?
fn owned(privacy: &[Privacy], me: usize, page: PageId) -> bool {
    let now = privacy.get(page);
    now == Some(&Privacy::Written) || now == Some(&Privacy::Private(me))
}

/// What the protocol keeps per page this node wrote, homes or faulted
/// on.
#[derive(Debug, Default)]
pub struct PageRow {
    /// Diff storage, if this node has written the page.
    pub diffs: PageDiffs,
    /// HLRC home-side state (only [`crate::hlrc`] writes it), once a
    /// published diff of the page reached this node as its home: fed
    /// only by *published* diffs (remote writers' eager flushes, and our
    /// own frozen diffs buffered at release) — deliberately separate from
    /// [`DsmState::frames`], whose content includes local unpublished
    /// writes that must never be served.
    pub home: Option<Box<HomePage>>,
    /// Sharing-profile event counters (always on; host-side only — see
    /// [`crate::profile`]). The writer statistics are filled in when
    /// the run ends, from [`NoticeTable`]'s writer windows.
    pub prof: PageProfile,
}

/// The page table: one [`PageRow`] per page, indexed by page id.
///
/// `Tmk::malloc_f64` hands page ids out densely from 0, so a vector
/// indexed by id serves. A row holds the diffs this node made of the
/// page, the home copy if the page is homed here, and the profile's
/// event counters. It does not hold write notices: every node
/// integrates a notice for every page anyone writes, and those go to
/// the [`NoticeTable`], so the rows are touched only for pages this
/// node writes, homes or faults on. The table grows on demand to the
/// highest such page; a row nothing has touched is an empty vector, a
/// null pointer and zeros and owns no heap memory.
#[derive(Debug, Default)]
pub struct PageTable {
    rows: Vec<PageRow>,
}

impl PageTable {
    /// The row of `page`, if the table has grown that far. A missing
    /// row and an untouched one mean the same: nothing known.
    pub fn get(&self, page: PageId) -> Option<&PageRow> {
        self.rows.get(page)
    }

    /// Mutable [`PageTable::get`] (does not grow the table).
    pub fn get_mut(&mut self, page: PageId) -> Option<&mut PageRow> {
        self.rows.get_mut(page)
    }

    /// The row of `page`, growing the table to hold it.
    pub fn row(&mut self, page: PageId) -> &mut PageRow {
        if page >= self.rows.len() {
            self.rows.resize_with(page + 1, PageRow::default);
        }
        &mut self.rows[page]
    }

    /// Rows the table holds (one past the highest page touched).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True before any page was touched.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// One recorded barrier/worker arrival at the manager.
#[derive(Debug)]
pub struct Arrival {
    /// The arrival where it landed: the arriving node, its vector clock,
    /// the pushes to expect per destination and its new intervals, which
    /// wait here until the epoch completes (the local application must
    /// not observe future write notices mid-epoch).
    pub msg: crate::protocol::Arrival,
    /// Virtual arrival time at the manager.
    pub at: VTime,
    /// Correlation id of the arrival packet (the causal anchor of the
    /// epoch's departures when this arrival is the critical one).
    pub seq: u64,
}

/// Barrier/fork-join bookkeeping for one epoch at the manager.
#[derive(Debug, Default)]
pub struct EpochState {
    /// Arrivals received so far.
    pub arrivals: Vec<Arrival>,
    /// The master's fork message where it landed, once `fork` was called
    /// this epoch: flag bits, the push counts of the pushes the master
    /// sent right before dispatching the loop, and the loop's control
    /// words.
    pub fork_msg: Option<Payload>,
    /// Virtual time of the master's fork call.
    pub fork_vt: VTime,
    /// Correlation id of the master's fork packet.
    pub fork_seq: u64,
    /// Master called `join` this epoch.
    pub joined: bool,
    /// Virtual time of the master's join call.
    pub join_vt: VTime,
    /// Correlation id of the master's join packet.
    pub join_seq: u64,
    /// The join reply was already sent.
    pub join_served: bool,
}

/// The complete DSM state of one node.
pub struct DsmState {
    /// This node's id.
    pub me: usize,
    /// Cluster size.
    pub n: usize,
    /// Configuration (page size etc.).
    pub cfg: TmkConfig,
    /// Vector clock: `vc[me]` is our interval counter.
    pub vc: Vc,
    /// Highest Lamport stamp seen.
    pub lamport: u64,
    /// Interval log, indexed by creator, ascending sequence numbers:
    /// windows onto this node's own sealed intervals and onto the
    /// messages that carried everybody else's, which it keeps alive.
    pub log: Vec<Vec<Interval>>,
    /// Write notices: the latest and first-unapplied watermarks per
    /// (page, writer).
    pub notices: NoticeTable,
    /// Per-page protocol state: diffs, home copy, profile counters.
    pub pages: PageTable,
    /// The words meet pushes left out, which a view faults on
    /// ([`crate::hole`]), by page: only pages with a hole have an entry.
    pub holes: BTreeMap<PageId, Holes>,
    /// Cached page frames, in extents (see [`crate::page`]).
    pub frames: FrameStore,
    /// Pages written since the last flush, in first-write order, each
    /// once: a page is listed when its frame's `dirty` flag goes up
    /// ([`DsmState::mark_dirty`]), and the flag answers "is it dirty?".
    /// [`DsmState::flush`] sorts the list once, seals the interval from
    /// it and clears it.
    dirty: Vec<PageId>,
    /// The ranges whose diffs sit in the open batch of
    /// [`DsmState::freeze_all`] or [`DsmState::put_entries`], with where;
    /// empty between batches (kept for its capacity).
    freezing: Vec<(PageId, OpenRange, Pending)>,
    /// Our own intervals not yet reported to the barrier manager.
    pub unreported_seq: u32,
    /// Lock state where we are (or were) the holder.
    pub locks: BTreeMap<u32, LockLocal>,
    /// Manager-side: last node a lock was directed to.
    pub lock_owner: BTreeMap<u32, usize>,
    /// Manager-side barrier state per epoch.
    pub epochs: BTreeMap<u64, EpochState>,
    /// Pushes registered for the next synchronization rendezvous
    /// (barrier, worker arrival or master fork).
    pub(crate) pending: crate::dsm::Pushes,
    /// In-flight direct reductions, keyed by reduction sequence number.
    pub reduces: BTreeMap<u64, ReduceSlot>,
    /// What HLRC keeps beside the per-page home copies: the prune work
    /// list, the home overrides and the deferred page requests. Only
    /// [`crate::hlrc`] touches it; under LRC it stays empty.
    pub(crate) home: HomeState,
    /// The pages the running loop body overwrites whole, until the
    /// release ([`DsmState::open_armed`]); empty outside a hinted body.
    armed: Armed,
    /// Derived privatization, by page; pages past the end are shared.
    pub(crate) privacy: Vec<Privacy>,
    /// `vc[me]` at this node's last rendezvous pushes: the ranges of the
    /// intervals after it go at the next.
    pub(crate) pushed: u32,
    /// Recycled page buffers for the twin/diff path.
    pub scratch: DiffScratch,
    /// Per-node protocol statistics.
    pub stats: DsmStats,
    /// Race-detection provenance log, present iff
    /// [`TmkConfig::detect_races`]: every flush appends the closing
    /// interval's per-word write set and vector clock (see
    /// [`crate::race`]). Host-side only — never touches the wire or the
    /// virtual clock.
    pub race: Option<RaceLog>,
    /// Per-lock contention profile (always on; host-side only).
    pub lock_prof: BTreeMap<u32, crate::profile::LockProfile>,
}

impl DsmState {
    /// Fresh state for node `me` of `n`.
    pub fn new(me: usize, n: usize, cfg: TmkConfig) -> DsmState {
        let detect_races = cfg.detect_races;
        let frames = FrameStore::new(cfg.page_words, n);
        DsmState {
            me,
            n,
            cfg,
            vc: vec![0; n],
            lamport: 0,
            log: (0..n).map(|_| Vec::new()).collect(),
            notices: NoticeTable::new(n),
            pages: PageTable::default(),
            holes: BTreeMap::new(),
            frames,
            dirty: Vec::new(),
            freezing: Vec::new(),
            unreported_seq: 0,
            locks: BTreeMap::new(),
            lock_owner: BTreeMap::new(),
            epochs: BTreeMap::new(),
            pending: Default::default(),
            reduces: BTreeMap::new(),
            home: HomeState::default(),
            armed: Armed::default(),
            privacy: Vec::new(),
            pushed: 0,
            scratch: DiffScratch::default(),
            stats: DsmStats::default(),
            race: detect_races.then(|| RaceLog {
                node: me,
                intervals: Vec::new(),
            }),
            lock_prof: BTreeMap::new(),
        }
    }

    /// A per-node epoch proxy for the sharing profile's writer windows:
    /// the count of synchronization rendezvous this node has completed.
    /// It only needs to *separate* epochs locally, not agree across
    /// nodes.
    pub(crate) fn epoch_proxy(&self) -> u64 {
        self.stats.barriers + self.stats.forks
    }

    /// Record one contribution to reduction `seq` — a child subtree's
    /// partial (`from = Some(child)`) or the local deposit (`from =
    /// None`) — and, if the slot is now complete, combine and return the
    /// subtree total. The combine order is fixed (own partial first, then
    /// children ascending by rank), so the result is deterministic.
    pub fn reduce_contribute(
        &mut self,
        seq: u64,
        from: Option<usize>,
        vals: Vec<f64>,
        op: ReduceOp,
    ) -> Option<Vec<f64>> {
        let slot = self.reduces.entry(seq).or_default();
        match from {
            Some(child) => {
                slot.parts.insert(child, vals);
            }
            None => slot.local = Some(vals),
        }
        let nchildren = Tree::new(self.me, self.n, 0).children().count();
        let complete = slot.local.is_some() && slot.parts.len() == nchildren;
        if !complete {
            return None;
        }
        let slot = self.reduces.remove(&seq).expect("slot exists");
        let mut acc = slot.local.expect("complete slot has a local partial");
        for part in slot.parts.values() {
            op.fold(&mut acc, part);
        }
        Some(acc)
    }

    /// Lock-state entry with correct token initialization: the token
    /// starts at the lock's statically assigned manager.
    pub fn lock_entry(&mut self, lock: u32) -> &mut LockLocal {
        let is_mgr = lock as usize % self.n == self.me;
        self.locks.entry(lock).or_insert_with(|| LockLocal {
            has_token: is_mgr,
            ..LockLocal::default()
        })
    }

    /// Integrate the intervals `arrivals` carried (manager side, called
    /// at epoch completion while the local application is blocked in the
    /// rendezvous), in `(creator, sequence)` order whatever order the
    /// arrivals came in: an arrival carries its sender's own intervals,
    /// ascending. Idempotent.
    pub fn integrate_arrivals(&mut self, arrivals: &[Arrival], cost: &CostModel) {
        for src in 0..self.n {
            for a in arrivals.iter().filter(|a| a.msg.src == src) {
                for iv in a.msg.intervals.clone() {
                    debug_assert_eq!(iv.node(), src, "an arrival reports its sender's intervals");
                    self.integrate_interval(iv, cost);
                }
            }
        }
    }

    /// Does a write notice of another node invalidate `page` — one above
    /// what the frame has applied for that writer? Phase 1 of a miss; a
    /// `true` is counted as a fault in the page's profile.
    pub fn faults_on(&mut self, page: PageId) -> bool {
        let invalid = (self.notices).any_missing(page, self.me, self.frames.applied(page));
        if invalid {
            self.pages.row(page).prof.faults += 1;
        }
        invalid
    }

    /// Arm, for the body of loop `loop_id`, the pages of `whole` — which
    /// it overwrites whole — and of `written`, which it writes otherwise
    /// (sorted, disjoint page runs, the two sets apart), less the written
    /// pages private here, whose writes take no fault anyway
    /// (`DsmState::write_private`; privacy changes only where a
    /// dispatch privatizes, before its bodies arm). The arming of a
    /// body that ran before it since the release — in one fused dispatch
    /// — ends here, as it would at the release.
    pub(crate) fn arm(
        &mut self,
        loop_id: usize,
        whole: &[std::ops::Range<PageId>],
        written: &[std::ops::Range<PageId>],
    ) {
        self.assert_disarmed();
        self.disarm();
        self.armed.loop_id = loop_id;
        self.armed.released = false;
        let (privacy, me) = (&self.privacy, self.me);
        for (runs, whole) in [(whole, true), (written, false)] {
            let pages = runs.iter().cloned().flatten();
            let pages = pages.filter(|&page| whole || !owned(privacy, me, page));
            self.armed.pages.extend(pages.map(|page| ArmedPage {
                page,
                whole,
                opened: false,
            }));
        }
        self.armed.pages.sort_unstable_by_key(|a| a.page);
    }

    /// A sync-point invariant, checked with debug assertions at every
    /// release and wherever a body arms its pages: no page is still armed
    /// for a body whose release has passed.
    fn assert_disarmed(&self) {
        if cfg!(debug_assertions) && self.armed.released {
            if let Some(a) = self.armed.pages.first() {
                panic!(
                    "page {} is still armed for loop {} past that body's release",
                    a.page, self.armed.loop_id
                );
            }
        }
    }

    /// The first view the body opens over each write-all page of `pages`,
    /// whose frames exist. A write view's: a page without a twin takes no
    /// fault — its missing notices count as applied, so no miss fetches
    /// it — and its twin is the poison page, against which every stored
    /// word is a change, so its release publishes it whole. With debug
    /// assertions its words are poisoned too, for [`DsmState::flush`] to
    /// find any the body left unstored. (A twinned page misses nothing —
    /// a foreign notice would have frozen its range — and writes as
    /// usual; a private one is not armed.) A read view's, before any
    /// write, breaks the contract: a panic with debug assertions, else
    /// the page is disarmed and faults as usual.
    pub(crate) fn open_armed(&mut self, pages: std::ops::Range<PageId>, write: bool) {
        let at = |end| self.armed.pages.partition_point(|a| a.page < end);
        for i in at(pages.start)..at(pages.end) {
            let ArmedPage {
                page,
                whole,
                opened,
            } = &mut self.armed.pages[i];
            let page = *page;
            if !*whole || std::mem::replace(opened, true) {
                continue;
            }
            assert!(
                write || !cfg!(debug_assertions),
                "loop {} reads page {page} before it writes it: a `Write` touch stores every \
                 word first — declare it `Update`",
                self.armed.loop_id
            );
            let twinned = self.frames.meta(page).is_some_and(|m| m.twin.is_some());
            if !write || twinned || self.owns(page) {
                continue;
            }
            let twin = self
                .scratch
                .take_poison(self.cfg.page_words, &mut self.stats);
            let mut frame = self.frames.frame_mut(page);
            frame.meta.twin = Some(twin);
            if cfg!(debug_assertions) {
                frame.data.fill(POISON);
            }
            frame.raise_applied(self.notices.latest(page).into_iter().flatten().copied());
            self.clear_holes(page, 0..self.cfg.page_words);
        }
    }

    /// Whether this is the body's first write view over `page`, a
    /// validated write: the body's validate write-enabled it, so the
    /// write takes no fault (`Tmk::validate`).
    pub(crate) fn first_validated_write(&mut self, page: PageId) -> bool {
        if self.armed.pages.is_empty() {
            return false;
        }
        let i = self.armed.pages.partition_point(|a| a.page < page);
        match self.armed.pages.get_mut(i) {
            Some(a) if a.page == page && !a.whole => !std::mem::replace(&mut a.opened, true),
            _ => false,
        }
    }

    /// End the arming at this node's release, or where the next body of
    /// a fused dispatch arms its own pages. With debug assertions, a
    /// poisoned word on a write-all page the body opened is one it never
    /// stored.
    fn disarm(&mut self) {
        if cfg!(debug_assertions) {
            let opened = self.armed.pages.iter().filter(|a| a.whole && a.opened);
            for &ArmedPage { page, .. } in opened {
                let data = self.frames.data(page).expect("an opened page has a frame");
                if let Some(k) = data.iter().position(|&w| w == POISON) {
                    panic!(
                        "loop {} left word {k} of page {page} unstored: a `Write` touch stores \
                         every word of its pages — declare it `Update`",
                        self.armed.loop_id
                    );
                }
            }
        }
        self.armed.pages.clear();
    }

    /// Highest interval of `writer` already reflected in our frame of
    /// `page` (0 without a frame).
    pub fn applied_seq(&self, page: PageId, writer: usize) -> u32 {
        self.frames.applied(page).map_or(0, |a| a[writer])
    }

    /// Does an unapplied notice for `page` sort before `stamp`, a range's
    /// `(lamport, writer)`? Then the range must wait: applied now, it
    /// would lie under words that happen before it.
    pub(crate) fn notice_before(&mut self, page: PageId, stamp: (u64, usize)) -> bool {
        let applied = self.frames.applied(page);
        (0..self.n).filter(|&w| w != self.me).any(|w| {
            let done = applied.map_or(0, |a| a[w]);
            let first = self.notices.first_after(page, w, done, &self.log[w]);
            first.is_some_and(|s| (self.log[w][s as usize - 1].lamport(), w) < stamp)
        })
    }

    /// Release operation: publish one interval carrying write notices for
    /// all dirty pages. Diff creation is *delayed*: the page keeps its
    /// twin and stays writable, and only the open-range metadata is
    /// extended — per real TreadMarks, a page nobody requests costs
    /// nothing per interval. Returns the (small) bookkeeping time to
    /// charge to the releasing thread and the interval it created, if
    /// anything was dirty. It ends a body's arming: with debug
    /// assertions, a poisoned word left on a write-all page it opened
    /// panics, naming the loop and the page.
    pub fn flush(&mut self, cost: &CostModel) -> (f64, Option<Interval>) {
        self.assert_disarmed();
        self.disarm();
        self.armed.released = true;
        if self.dirty.is_empty() {
            return (0.0, None);
        }
        let me = self.me;
        let seq = self.vc[me] + 1;
        self.vc[me] = seq;
        self.lamport += 1;
        let lamport = self.lamport;
        let epoch = self.epoch_proxy();
        // The interval's pages are the list, ascending (`NoticeTable::push`
        // and every binary search of a page list rely on it); the list
        // itself is handed back below, cleared, for the next interval.
        let mut pages = std::mem::take(&mut self.dirty);
        pages.sort_unstable();
        let mut race_writes: Vec<(PageId, Vec<u32>)> = Vec::new();
        for &p in &pages {
            let frame = self.frames.frame_mut(p);
            debug_assert!(frame.meta.twin.is_some(), "dirty page has a twin");
            frame.meta.dirty = false;
            if self.race.is_some() {
                // Exactly this interval's writes: the delta against the
                // content at the previous flush (the published image), or
                // against the twin when this is the first flush since the
                // write fault. Remote diffs cancel — they land on both
                // sides (`Frame::apply_diff`).
                let base = frame
                    .meta
                    .published
                    .as_deref()
                    .or(frame.meta.twin.as_deref())
                    .expect("dirty page has a twin");
                race_writes.push((p, Diff::create(base, frame.data).changed_positions()));
            }
            // Re-anchor the published image at this release point so a
            // later serve, whenever it is scheduled, excludes the *next* epoch's
            // writes. With detection on the image is created eagerly
            // (per-interval deltas need a per-flush base); otherwise it
            // only exists once a re-dirty fault created it lazily.
            match frame.meta.published.as_mut() {
                Some(shot) => shot.copy_from_slice(frame.data),
                None if self.race.is_some() => frame.meta.published = Some(frame.data.to_vec()),
                None => {}
            }
            frame.applied[me] = seq;
            let row = self.pages.row(p);
            let open = row.diffs.open.get_or_insert(OpenRange {
                lo: seq,
                hi: seq,
                lamport,
            });
            open.hi = seq;
        }
        let us = pages.len() as f64 * cost.manager_us * 0.1;
        let iv = Interval::seal(me, seq, lamport, &pages);
        pages.clear();
        self.dirty = pages;
        self.notices.push(iv.pages(), me, seq, epoch);
        self.log[me].push(iv.clone());
        self.stats.intervals_created += 1;
        if let Some(log) = &mut self.race {
            log.intervals.push(IntervalWrites {
                node: me,
                seq,
                lamport,
                vc: self.vc.clone(),
                writes: race_writes,
            });
        }
        (us, Some(iv))
    }

    /// Integrate an interval received from elsewhere, freezing this
    /// node's open range on every page it names (no range spans a foreign
    /// notice) for the first message that carries it to pay for
    /// ([`DiffRange::unpaid`]). Idempotent; returns `true` if it was new.
    pub fn integrate_interval(&mut self, iv: Interval, cost: &CostModel) -> bool {
        let (node, seq) = (iv.node(), iv.seq());
        if seq <= self.vc[node] {
            return false;
        }
        debug_assert_eq!(
            seq,
            self.vc[node] + 1,
            "intervals from one creator integrate in order"
        );
        self.vc[node] = seq;
        self.lamport = self.lamport.max(iv.lamport());
        self.freeze_all(iv.pages().iter().map(|&p| (p as PageId, 0)), cost, true);
        let epoch = self.epoch_proxy();
        self.notices.push(iv.pages(), node, seq, epoch);
        self.log[node].push(iv);
        true
    }

    /// The intervals in our log up to the clock `upto` that the clock
    /// `their_vc` has not seen, by creator and sequence number: what a
    /// departure or a grant encodes straight from the log, under the lock
    /// that holds it. A grant and a barrier's departures pass this node's
    /// own clock; a fork's, the clock of what happened before the fork.
    pub fn intervals_since<'a>(
        &'a self,
        their_vc: impl Iterator<Item = u32> + Clone + 'a,
        upto: &'a [u32],
    ) -> impl Iterator<Item = &'a Interval> + Clone + 'a {
        // Sequence numbers are 1-based and dense: the first `upto`
        // entries, less the first `known`.
        let logs = self.log.iter().zip(their_vc).zip(upto);
        logs.flat_map(|((ivs, known), &upto)| ivs.iter().take(upto as usize).skip(known as usize))
    }

    /// Our own intervals not yet reported via a barrier arrival, as a
    /// range of `log[me]`, now counted as reported. The arrival is
    /// encoded straight from the log under the lock that took the range.
    pub fn take_unreported(&mut self) -> std::ops::Range<usize> {
        let to = self.vc[self.me];
        std::mem::replace(&mut self.unreported_seq, to) as usize..to as usize
    }

    /// Is `page` private to this node?
    pub(crate) fn owns(&self, page: PageId) -> bool {
        owned(&self.privacy, self.me, page)
    }

    /// The node to fetch `page` from first, and if it is still private.
    pub(crate) fn owner_elsewhere(&self, page: PageId) -> Option<(usize, bool)> {
        match self.privacy.get(page) {
            Some(&Privacy::Private(q)) if q != self.me => Some((q, true)),
            Some(&Privacy::Stale(q)) => Some((q, false)),
            _ => None,
        }
    }

    /// End `page`'s privacy if this node owns it: one it wrote goes whole,
    /// against a poison twin, to every copy at its next release.
    pub(crate) fn end_owned(&mut self, page: PageId) {
        if self.owns(page) && std::mem::take(&mut self.privacy[page]) == Privacy::Written {
            let (pw, stats) = (self.cfg.page_words, &mut self.stats);
            let twin = Some(self.scratch.take_poison(pw, stats));
            self.frames.meta_mut(page).expect("a frame").twin = twin;
            self.mark_dirty(page);
        }
    }

    /// A write to `page`: private here and untwinned, it stays clean.
    pub(crate) fn write_private(&mut self, page: PageId) -> bool {
        let private = self.owns(page) && self.frames.meta(page).is_some_and(|m| m.twin.is_none());
        if private {
            self.privacy[page] = Privacy::Written;
        }
        private
    }

    /// Has `page` been written since the last flush?
    pub fn is_dirty(&self, page: PageId) -> bool {
        self.frames.meta(page).is_some_and(|meta| meta.dirty)
    }

    /// Note a write to `page`, which must have a frame: list it for the
    /// next flush unless it already is.
    pub fn mark_dirty(&mut self, page: PageId) {
        let meta = self
            .frames
            .meta_mut(page)
            .expect("written page has a frame");
        if !std::mem::replace(&mut meta.dirty, true) {
            self.dirty.push(page);
        }
    }

    /// Materialize (freeze) the open range of every `(page,
    /// first_needed)` of `reqs` that reaches its `first_needed`, into one
    /// batch that stays on this node (the pages of a release homed here,
    /// which the release pays for; the ranges a foreign notice closes,
    /// `unpaid`): built side by side, sealed into one shared buffer, each
    /// range's diff a window onto it (`crate::diff`, "Life cycle").
    /// [`DsmState::frozen_from`] and [`DsmState::newest_frozen`] then
    /// read the result.
    pub fn freeze_all(
        &mut self,
        reqs: impl IntoIterator<Item = (PageId, u32)>,
        cost: &CostModel,
        unpaid: bool,
    ) {
        debug_assert!(self.freezing.is_empty());
        let mut batch = DiffBatch::new();
        for (page, first_needed) in reqs {
            self.freeze_into(&mut batch, page, first_needed, cost);
        }
        self.keep_frozen(&batch.seal(), unpaid);
    }

    /// Write the count-prefixed diff entries
    /// (`protocol::encode_diff_entry`) of every `(page, first_needed)` of
    /// `reqs` into `msg`, a message under construction — a diff
    /// response, a home flush, a push. Per page, in `reqs` order: copies
    /// of its frozen ranges that reach `first_needed`, then its open
    /// range, frozen straight into the message if it reaches
    /// `first_needed` (`carry` says whether a page's whole history from
    /// there goes, or its newest range only — then a page with such an
    /// open range sends no copy). `charge` is handed each page's time in
    /// `reqs` order: its freeze, and the creation of the copies it is the
    /// first to carry ([`DiffRange::unpaid`]). Each page must appear once:
    /// a range frozen into the message is only kept when
    /// [`DsmState::finish_message`] hands the message over.
    pub fn put_entries(
        &mut self,
        msg: &mut DiffBatch,
        reqs: impl IntoIterator<Item = (PageId, u32)>,
        carry: Carry,
        cost: &CostModel,
        mut charge: impl FnMut(f64),
    ) {
        debug_assert!(self.freezing.is_empty());
        let count_at = msg.len();
        msg.put(0);
        let mut entries = 0;
        for (page, first_needed) in reqs {
            let (copies, open) = self.entries_of(page, first_needed, carry);
            let mut unpaid = 0.0;
            for range in copies {
                protocol::encode_diff_entry(msg, page, range);
                msg.note_copies();
                if range.unpaid {
                    unpaid += cost.diff_create_us(range.diff.changed_words());
                }
            }
            let shipped = copies.len();
            entries += shipped as u64;
            if unpaid > 0.0 {
                // Paid for: the copies are the page's newest frozen ranges.
                let frozen = self.pages.row(page).diffs.frozen.iter_mut();
                frozen.rev().take(shipped).for_each(|r| r.unpaid = false);
            }
            let Some(open) = open else {
                charge(unpaid);
                continue;
            };
            protocol::encode_diff_entry_head(msg, page, open.lo, open.hi, open.lamport);
            entries += 1;
            charge(unpaid + self.freeze_into(msg, page, first_needed, cost));
        }
        msg.set(count_at, entries);
    }

    /// Does `page` have a range reaching interval `first_needed`, frozen
    /// or open — an entry of [`DsmState::put_entries`] to carry?
    pub fn has_range_from(&self, page: PageId, first_needed: u32) -> bool {
        let (copies, open) = self.entries_of(page, first_needed, Carry::Newest);
        open.is_some() || !copies.is_empty()
    }

    /// What [`DsmState::put_entries`] writes for `page`: the frozen
    /// ranges it copies, and the open range it freezes.
    fn entries_of(
        &self,
        page: PageId,
        first_needed: u32,
        carry: Carry,
    ) -> (&[DiffRange], Option<OpenRange>) {
        let open = (self.pages.get(page))
            .and_then(|row| row.diffs.open)
            .filter(|open| open.hi >= first_needed);
        let frozen = self.frozen_from(page, first_needed);
        let copies = match carry {
            Carry::History => frozen,
            Carry::Newest if open.is_some() => &[],
            Carry::Newest => &frozen[frozen.len().saturating_sub(1)..],
        };
        (copies, open)
    }

    /// Does the newest range of `page` reaching interval `first_needed`
    /// change no word outside `keep` (sorted, disjoint page-relative
    /// runs)? A push of the page carries the meet with `keep` only when
    /// it does not. An open range is read as [`DsmState::put_entries`]
    /// will freeze it: its twin against the published image, or the
    /// frame — without freezing it.
    pub(crate) fn range_within(
        &self,
        page: PageId,
        first_needed: u32,
        keep: &[std::ops::Range<usize>],
    ) -> bool {
        let (copies, open) = self.entries_of(page, first_needed, Carry::Newest);
        if open.is_none() {
            return (copies.last())
                .is_none_or(|r| r.diff.meet_words(keep) == r.diff.changed_words());
        }
        let meta = self.frames.meta(page).expect("open range has a frame");
        let twin = meta.twin.as_deref().expect("open range has a twin");
        let image = meta.published.as_deref();
        let image = image
            .or(self.frames.data(page))
            .expect("open range has a frame");
        let mut at = 0;
        let end = self.cfg.page_words;
        for k in keep.iter().chain(std::iter::once(&(end..end))) {
            if twin[at..k.start] != image[at..k.start] {
                return false;
            }
            at = k.end;
        }
        true
    }

    /// The payload of `msg`, whose entries [`DsmState::put_entries`]
    /// wrote: the batch becomes the message, and every range frozen into
    /// it is kept in its page's frozen list, a window onto that message —
    /// or, if the message carries copies too, onto its fresh diffs sealed
    /// apart ([`DiffBatch::into_message`]).
    pub fn finish_message(&mut self, msg: DiffBatch) -> Payload {
        let (sealed, payload) = msg.into_message(self.freezing.iter_mut().map(|(_, _, p)| p));
        self.keep_frozen(&sealed, false);
        payload
    }

    /// Keep the ranges of `freezing` in their pages' frozen lists, their
    /// diffs windows onto `sealed`, the batch they were frozen into.
    fn keep_frozen(&mut self, sealed: &Sealed, unpaid: bool) {
        for (page, open, pending) in self.freezing.drain(..) {
            self.pages.rows[page].diffs.frozen.push(DiffRange {
                lo: open.lo,
                hi: open.hi,
                lamport: open.lamport,
                diff: sealed.window(pending),
                unpaid,
            });
        }
    }

    /// Freeze one page: diff its open range, if it reaches
    /// `first_needed`, into `batch` and note it in `freezing`, to be kept
    /// once the batch is finished; returns its time to charge. This is
    /// where the twin comparison actually happens. After a freeze the
    /// twin is dropped (unless the page is dirty again), so the next
    /// local write re-faults and re-twins, exactly like the original
    /// system re-protecting a diffed page. Nothing between opening a
    /// batch and finishing it can switch fibers.
    ///
    /// The materialization compares the twin against the **published
    /// image** when one exists, never the live frame: this call runs on
    /// the protocol service loop at whatever moment the schedule gives
    /// it, and the live frame may already hold
    /// writes of the *next* open epoch — virtually ordered after the
    /// requester's read. Serving those words backward through virtual
    /// time is the divergence this image exists to prevent; `data` is a
    /// correct fallback only while the page has not been re-written
    /// since its last flush (then the two are identical).
    fn freeze_into(
        &mut self,
        batch: &mut DiffBatch,
        page: PageId,
        first_needed: u32,
        cost: &CostModel,
    ) -> f64 {
        let Some(row) = self.pages.get_mut(page) else {
            return 0.0;
        };
        let Some(open) = row.diffs.open.filter(|open| open.hi >= first_needed) else {
            return 0.0;
        };
        row.diffs.open = None;
        // Take both buffers out of the frame: the words themselves are
        // read only when there is no published image, i.e. the page has
        // not been write-enabled since its last flush — which is what
        // makes this read schedule-independent: no in-place store of the
        // application is in it (`crate::page`, invariant 4).
        let meta = self.frames.meta_mut(page).expect("open range has a frame");
        let twin = meta.twin.take().expect("open range has a twin");
        let published = meta.published.take();
        // Re-protect a clean page: the next write takes a fresh
        // fault+twin, and the published image retires with the twin
        // (they are a pair — the image is only meaningful against its
        // twin).
        //
        // A dirty page is mid-epoch, so a twin must survive — but its
        // baseline just moved: everything up to `open.hi` is frozen into
        // the served range now, and the next freeze must diff against
        // *this* snapshot, not the original fault-time twin. Re-anchoring
        // by promoting the published image to be the new twin is what
        // keeps ranges disjoint: a twin left stale would make the next
        // freeze re-include every word served here, and re-applying
        // those at a concurrent writer would clobber that writer's own
        // newer values (the lost-warm-up divergence a thread-per-node
        // engine exposed about once in 10^3 runs;
        // `ci/mutants/pr9_stale_twin.patch`).
        let pending = if meta.dirty {
            let image = published.expect(
                "a dirty page with an open range was re-faulted, which snapshots the published image",
            );
            let pending = batch.push(&twin, &image);
            meta.twin = Some(image);
            pending
        } else {
            match &published {
                Some(image) => batch.push(&twin, image),
                None => batch.push(
                    &twin,
                    self.frames.data(page).expect("open range has a frame"),
                ),
            }
        };
        let changed = pending.changed_words();
        self.stats.diffs_created += 1;
        self.stats.diff_words_created += changed as u64;
        row.prof.diffs_created += 1;
        row.prof.diff_words_created += changed as u64;
        // The retired twin goes back to the scratch arena.
        self.scratch.put(twin, &mut self.stats);
        self.freezing.push((page, open, pending));
        cost.diff_create_us(changed)
    }

    /// Frozen ranges of `page` covering intervals `first_needed..`, in
    /// increasing order.
    pub fn frozen_from(&self, page: PageId, first_needed: u32) -> &[DiffRange] {
        let frozen = self.pages.get(page).map_or(&[][..], |r| &r.diffs.frozen);
        &frozen[frozen.partition_point(|r| r.hi < first_needed)..]
    }

    /// The newest frozen range of `page`, if it reaches `first_needed`
    /// — what a home flush or a push ships.
    pub fn newest_frozen(&self, page: PageId, first_needed: u32) -> Option<&DiffRange> {
        self.frozen_from(page, first_needed).last()
    }

    /// Apply a fetched diff range from `writer` to our frame of `page`.
    /// Caller is responsible for ordering by `(lamport, writer)`. The
    /// words it lands on are holes no more.
    pub fn apply_range(&mut self, page: PageId, writer: usize, hi: u32, diff: &Diff) {
        let mut frame = self.frames.frame_mut(page);
        frame.apply_diff(diff);
        if hi > frame.applied[writer] {
            frame.applied[writer] = hi;
        }
        self.stats.diffs_applied += 1;
        self.pages.row(page).prof.diffs_applied += 1;
        if let Some(holes) = self.holes.get_mut(&page) {
            diff.runs()
                .for_each(|(at, values)| holes.clear(at..at + values.len()));
            if holes.is_empty() {
                self.holes.remove(&page);
            }
        }
    }

    /// Count a push of `list`, built for interval `last`, to `targets`
    /// nodes in the push-word statistics: per target and page, the words
    /// its range changed and those sent with their values — all of them,
    /// or the meet. Pages `spans` names (sorted) carry no range.
    pub(crate) fn count_push_words(
        &mut self,
        list: &crate::coherence::PushList,
        spans: &[(PageId, std::ops::Range<usize>)],
        last: u32,
        targets: u64,
    ) {
        for (i, &p) in list.pages.iter().enumerate() {
            if spans.binary_search_by_key(&p, |s| s.0).is_ok() {
                continue;
            }
            let Some(range) = self.newest_frozen(p, last) else {
                continue;
            };
            let changed = range.diff.changed_words() as u64;
            let sent = list
                .meet(i)
                .map_or(changed, |keep| range.diff.meet_words(keep) as u64);
            self.stats.push_words_changed += changed * targets;
            self.stats.push_words_sent += sent * targets;
        }
    }

    /// Record the hole runs `headers` (wire headers, `crate::hole`) of
    /// range `seq` of `writer` on `page`, which a meet push just applied.
    pub(crate) fn add_holes(&mut self, page: PageId, writer: usize, seq: u32, headers: &[u64]) {
        let pw = self.cfg.page_words;
        let holes = self.holes.entry(page).or_default();
        for &h in headers {
            holes.add(writer, seq, hole::run_of(h, pw));
        }
        if holes.is_empty() {
            self.holes.remove(&page);
        }
    }

    /// Forget the holes of `page` under `words` (page-relative): an
    /// install landed there.
    pub(crate) fn clear_holes(&mut self, page: PageId, words: std::ops::Range<usize>) {
        if let Some(holes) = self.holes.get_mut(&page) {
            holes.clear(words);
            if holes.is_empty() {
                self.holes.remove(&page);
            }
        }
    }

    /// Fill the holes range `seq` of `writer` left on `page` from
    /// `diff`, that range — a diff whose interval the frame has applied.
    /// Returns the words filled.
    pub(crate) fn fill_holes(
        &mut self,
        page: PageId,
        writer: usize,
        seq: u32,
        diff: &Diff,
    ) -> usize {
        let Some(holes) = self.holes.get_mut(&page) else {
            return 0;
        };
        let mut frame = self.frames.frame_mut(page);
        let filled = holes.fill(writer, seq, diff, |at, values| frame.put_words(at, values));
        if holes.is_empty() {
            self.holes.remove(&page);
        }
        filled
    }

    /// The holes of `page` a view of its page-relative `words` overlaps.
    pub(crate) fn holes_under(
        &self,
        page: PageId,
        words: std::ops::Range<usize>,
    ) -> impl Iterator<Item = &hole::Hole> {
        let holes = self.holes.get(&page);
        holes
            .into_iter()
            .flat_map(move |h| h.overlapping(words.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    /// The representation [`NoticeTable`] replaced: per page, per writer,
    /// the ascending list of every notice sequence, each query a binary
    /// search. Kept as the reference the watermarks must agree with.
    #[derive(Clone, Debug, Default)]
    struct PageNotices {
        seqs: Vec<Vec<u32>>,
    }

    impl PageNotices {
        fn push(&mut self, n: usize, node: usize, seq: u32) {
            if self.seqs.is_empty() {
                self.seqs = vec![Vec::new(); n];
            }
            let list = &mut self.seqs[node];
            assert!(!list.iter().any(|&s| s >= seq), "ascending per creator");
            list.push(seq);
        }

        fn is_empty(&self) -> bool {
            self.seqs.iter().all(Vec::is_empty)
        }

        fn max_seq(&self, writer: usize) -> u32 {
            self.seqs
                .get(writer)
                .and_then(|l| l.last().copied())
                .unwrap_or(0)
        }

        fn first_after(&self, writer: usize, done: u32) -> Option<u32> {
            let list = self.seqs.get(writer)?;
            let i = list.partition_point(|&s| s <= done);
            list.get(i).copied()
        }

        fn missing(&self, me: usize, applied: &[u32]) -> Vec<(usize, u32)> {
            (0..self.seqs.len())
                .filter(|&w| w != me)
                .filter_map(|w| self.first_after(w, applied[w]).map(|first| (w, first)))
                .collect()
        }

        fn any_between(&self, writer: usize, lo: u32, hi: u32) -> bool {
            self.first_after(writer, lo).is_some_and(|s| s < hi)
        }
    }

    /// A [`NoticeTable`] beside the reference lists, with the interval
    /// logs and `applied` watermarks both are queried against (node 0's
    /// view of `N` nodes and `PAGES` pages).
    struct Model {
        table: NoticeTable,
        lists: Vec<PageNotices>,
        log: Vec<Vec<Interval>>,
        applied: Vec<[u32; Model::N]>,
    }

    impl Model {
        const N: usize = 3;
        const PAGES: usize = 4;

        fn new() -> Model {
            Model {
                table: NoticeTable::new(Model::N),
                lists: vec![PageNotices::default(); Model::PAGES],
                log: vec![Vec::new(); Model::N],
                applied: vec![[0; Model::N]; Model::PAGES],
            }
        }

        /// The next interval of `writer` names `pages` (ascending).
        fn push(&mut self, writer: usize, pages: Vec<PageId>) {
            let seq = self.log[writer].len() as u32 + 1;
            let iv = Interval::seal(writer, seq, 0, &pages);
            self.table.push(iv.pages(), writer, seq, 0);
            for &p in &pages {
                self.lists[p].push(Model::N, writer, seq);
            }
            self.log[writer].push(iv);
        }

        /// The questions that leave the hint alone, for every page.
        fn check_watermarks(&self) {
            for (p, list) in self.lists.iter().enumerate() {
                let latest = self.table.latest(p);
                for w in 0..Model::N {
                    assert_eq!(latest.map_or(0, |l| l[w]), list.max_seq(w), "page {p}");
                }
                assert_eq!(self.table.is_named(p), !list.is_empty(), "page {p}");
                assert_eq!(
                    self.table.any_missing(p, 0, Some(&self.applied[p])),
                    !list.missing(0, &self.applied[p]).is_empty(),
                    "page {p}"
                );
                assert_eq!(
                    self.table.any_missing(p, 0, None),
                    !list.missing(0, &[0; Model::N]).is_empty(),
                    "page {p}, no frame"
                );
            }
        }

        /// The question that needs history — `missing` and the push gap
        /// check — for `page`, at its real `applied` watermarks.
        fn check_first_after(&mut self, page: PageId, hi: u32) {
            let applied = self.applied[page];
            let mut missing = Vec::new();
            for (w, &done) in applied.iter().enumerate().skip(1) {
                let first = self.table.first_after(page, w, done, &self.log[w]);
                missing.extend(first.map(|first| (w, first)));
                assert_eq!(
                    first.is_some_and(|first| first < hi),
                    self.lists[page].any_between(w, done, hi),
                    "page {page} writer {w} gap below {hi}"
                );
            }
            assert_eq!(
                missing,
                self.lists[page].missing(0, &applied),
                "page {page}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random programs of pushes, `applied` raises and queries: the
        /// watermarks answer every question the lists did. Raises are
        /// not followed by a query, so hints go stale on the way.
        #[test]
        fn prop_notice_table_matches_the_lists(
            ops in prop::collection::vec((0u32..8, 0usize..4, 1usize..3, 0u32..16), 1..120),
        ) {
            let mut m = Model::new();
            for (kind, page, writer, arg) in ops {
                match kind {
                    // An interval naming the pages in `arg`'s bits
                    // (none: a gap in every page's notices).
                    0..=3 => {
                        let pages = (0..Model::PAGES).filter(|p| arg >> p & 1 == 1).collect();
                        m.push(writer, pages);
                    }
                    // Raise `applied`: to the next notice, to between
                    // notices, or past the latest.
                    4 | 5 => {
                        let a = &mut m.applied[page][writer];
                        let latest = m.lists[page].max_seq(writer);
                        *a = match arg % 3 {
                            0 => m.lists[page].first_after(writer, *a).unwrap_or(*a),
                            1 => *a + 1,
                            _ => (*a).max(latest + arg / 3),
                        };
                    }
                    _ => m.check_first_after(page, arg),
                }
                m.check_watermarks();
            }
            for page in 0..Model::PAGES {
                m.check_first_after(page, u32::MAX);
            }
        }
    }

    #[test]
    fn stale_hint_is_rebuilt_from_the_interval_log() {
        let mut m = Model::new();
        // Seq 1 becomes the hint; seq 2 names another page; seq 3.
        m.push(1, vec![2]);
        m.push(1, vec![0]);
        m.push(1, vec![2]);
        // `applied` passes the hint with no query in between, then
        // another notice arrives.
        m.applied[2][1] = 1;
        m.push(1, vec![2, 3]);
        m.check_first_after(2, u32::MAX);
        assert_eq!(m.table.first_after(2, 1, 1, &m.log[1]), Some(3));
        // Answered from the stored hint now: an empty log is never read.
        assert_eq!(m.table.first_after(2, 1, 2, &[]), Some(3));
        // Everything applied clears the hint; the next push sets it.
        assert_eq!(m.table.first_after(2, 1, 4, &[]), None);
        m.push(1, vec![2]);
        assert_eq!(m.table.first_after(2, 1, 4, &[]), Some(5));
        // `applied` beyond every notice (a served range may reach past
        // the notices we hold).
        assert_eq!(m.table.first_after(2, 1, 9, &[]), None);
        assert_eq!(
            m.table.first_after(0, 2, 0, &[]),
            None,
            "writer without notices"
        );
        assert_eq!(m.table.first_after(77, 1, 0, &[]), None, "page never named");
    }

    /// MGS: column `j`'s only notice is its owner's `j`-th interval, and
    /// a reader arrives with nothing applied. The hint answers without
    /// walking the `j` intervals before it (the log is not even passed).
    #[test]
    fn one_notice_deep_in_a_long_log_is_found_without_a_scan() {
        let mut table = NoticeTable::new(2);
        for j in 0..500u64 {
            table.push(&[j], 1, j as u32 + 1, 0);
        }
        for j in 0..500usize {
            assert!(table.any_missing(j, 0, None));
            assert_eq!(table.first_after(j, 1, 0, &[]), Some(j as u32 + 1));
        }
    }

    #[test]
    fn a_notice_for_a_page_beyond_the_table_grows_it() {
        let mut table = NoticeTable::new(3);
        assert!(table.latest(0).is_none());
        assert!(table.latest(4).is_none() && !table.is_named(4));
        assert!(!table.any_missing(4, 0, None));
        table.push(&[1, 4], 2, 1, 0);
        assert!(table.latest(4).is_some() && table.latest(5).is_none());
        assert_eq!(table.latest(4).unwrap(), [0, 0, 1]);
        assert_eq!(table.latest(1).unwrap(), [0, 0, 1]);
        assert!(!table.is_named(3), "grown over, never named");
        table.push(&[9], 1, 1, 0);
        assert!(table.latest(9).is_some() && table.latest(10).is_none());
        assert_eq!(table.latest(4).unwrap(), [0, 0, 1], "rows survive growth");
        table.push(&[], 1, 2, 0);
        assert!(table.latest(10).is_none(), "an interval naming nothing");
        // Our own notices never invalidate our frame.
        assert!(table.any_missing(4, 0, None) && !table.any_missing(4, 2, None));
    }

    fn state(me: usize, n: usize) -> DsmState {
        DsmState::new(me, n, TmkConfig::default())
    }

    impl DsmState {
        /// Freeze one page's open range, if it reaches `first_needed`,
        /// the way a request does; returns its time to charge.
        fn freeze(&mut self, page: PageId, first_needed: u32, cost: &CostModel) -> f64 {
            let mut batch = DiffBatch::new();
            let us = self.freeze_into(&mut batch, page, first_needed, cost);
            self.keep_frozen(&batch.seal(), false);
            us
        }
    }

    /// Freeze, then the ranges a request for `first_needed..` is served.
    fn serve(s: &mut DsmState, page: PageId, first_needed: u32) -> (Vec<DiffRange>, f64) {
        let us = s.freeze(page, first_needed, &CostModel::sp2());
        (s.frozen_from(page, first_needed).to_vec(), us)
    }

    fn write_words(s: &mut DsmState, page: PageId, vals: &[(usize, u64)]) {
        let frame = s.frames.frame_mut(page);
        if frame.meta.twin.is_none() {
            frame.meta.twin = Some(frame.data.to_vec());
        }
        for &(i, v) in vals {
            frame.data[i] = v;
        }
        s.mark_dirty(page);
    }

    #[test]
    fn page_table_grows_on_demand() {
        let mut t = PageTable::default();
        assert!(t.is_empty());
        assert!(t.get(5).is_none(), "reading never grows the table");
        assert!(t.get_mut(5).is_none());
        assert!(t.is_empty());
        t.row(5).prof.faults = 1;
        assert_eq!(t.len(), 6, "grown to the highest page touched");
        t.row(2).diffs.frozen.reserve(1);
        assert_eq!(t.len(), 6, "a lower page needs no growth");
        assert_eq!(t.get(5).unwrap().prof.faults, 1, "rows survive growth");
        t.row(9);
        assert_eq!(t.get(5).unwrap().prof.faults, 1);
        assert_eq!(t.len(), 10);
        // Rows nothing touched own no heap memory.
        for p in (0..10).filter(|p| ![2, 5].contains(p)) {
            let row = t.get(p).unwrap();
            assert!(row.diffs.open.is_none() && row.diffs.frozen.capacity() == 0);
            assert!(row.home.is_none(), "page {p}");
            assert!(row.prof.is_untouched());
        }
        // A row is a few words now that the notices and the home copy
        // live elsewhere.
        assert!(std::mem::size_of::<PageRow>() <= 128);
    }

    #[test]
    fn each_freeze_appends_a_range_and_the_newest_is_the_last() {
        let mut s = state(0, 2);
        for k in 0..5u64 {
            write_words(&mut s, 3, &[(k as usize, k + 1)]);
            s.flush(&CostModel::sp2());
            let seq = s.vc[0];
            assert!(s.freeze(3, seq, &CostModel::sp2()) > 0.0);
            let newest = s.newest_frozen(3, seq).expect("just frozen");
            assert_eq!((newest.lo, newest.hi), (seq, seq));
            assert_eq!(newest.diff.changed_positions(), vec![k as u32]);
        }
        // The history stays: which of it a writer keeps is its protocol's
        // business (`hlrc::on_release` drops all but the newest).
        assert_eq!(s.pages.get(3).unwrap().diffs.frozen.len(), 5);
        assert_eq!(s.frozen_from(3, 1).len(), 5);
        assert!(s.newest_frozen(3, 6).is_none(), "nothing reaches seq 6");
        assert!(s.frozen_from(99, 1).is_empty(), "page never seen");
    }

    /// A batch freeze is the single freezes it stands for — same
    /// ranges, nothing for a page with nothing to freeze — with the
    /// diffs in one buffer.
    #[test]
    fn freeze_all_is_the_single_freezes_in_one_buffer() {
        let cost = CostModel::sp2();
        let written = || {
            let mut s = state(0, 2);
            write_words(&mut s, 3, &[(0, 1), (5, 2)]);
            write_words(&mut s, 4, &[(7, 3)]);
            write_words(&mut s, 6, &[(0, 0)]); // written, not changed
            s.flush(&cost);
            write_words(&mut s, 5, &[(1, 4)]);
            s.flush(&cost);
            s
        };
        // Page 9 was never written; page 4 is asked from interval 2 on,
        // which its open range (1..=1) does not reach; page 3 twice.
        let reqs = [(3, 1), (9, 1), (4, 2), (5, 1), (6, 1), (3, 1)];
        let (mut batched, mut single) = (written(), written());
        batched.freeze_all(reqs, &cost, false);
        let alone: Vec<f64> = reqs
            .iter()
            .map(|&(page, first)| single.freeze(page, first, &cost))
            .collect();
        assert!(alone[0] > 0.0 && alone[3] > 0.0 && alone[4] > 0.0);
        assert_eq!((alone[1], alone[2], alone[5]), (0.0, 0.0, 0.0));
        assert!(batched.freezing.is_empty());
        assert!(batched.pages.get(4).unwrap().diffs.open.is_some());
        for page in [3, 5, 6] {
            let (b, s) = (batched.frozen_from(page, 1), single.frozen_from(page, 1));
            assert_eq!(b.len(), 1);
            assert_eq!(
                (b[0].lo, b[0].hi, b[0].lamport),
                (s[0].lo, s[0].hi, s[0].lamport)
            );
            assert_eq!(b[0].diff, s[0].diff, "page {page}");
            assert!(batched.frames.meta(page).unwrap().twin.is_none());
        }
        assert_eq!(batched.stats.diffs_created, 3);
        assert_eq!(
            batched.stats.diff_words_created,
            single.stats.diff_words_created
        );
        let diff = |s: &DsmState, page| s.frozen_from(page, 1)[0].diff.clone();
        assert!(diff(&batched, 3).shares_buffer_with(&diff(&batched, 5)));
        assert!(!diff(&single, 3).shares_buffer_with(&diff(&single, 5)));
        assert!(
            diff(&batched, 6).shares_buffer_with(&Diff::default()),
            "an unchanged page is the shared empty diff"
        );
    }

    /// A message of diff entries is the wire form of the ranges it
    /// carries — the ones frozen earlier copied in, the open one frozen
    /// straight into it. What the writer keeps of that freeze is a window
    /// onto the message, unless the message carries copies: those the
    /// window must not pin, as LRC keeps every range for the whole run.
    #[test]
    fn put_entries_freezes_into_the_message_it_writes() {
        use crate::diff::Landed;

        let cost = CostModel::sp2();
        let written = || {
            let mut s = state(0, 2);
            // Page 3: interval 1 frozen by an earlier request, interval 2
            // still open; page 4 written but not changed (interval 3).
            write_words(&mut s, 3, &[(0, 1)]);
            s.flush(&cost);
            s.freeze(3, 1, &cost);
            write_words(&mut s, 3, &[(1, 2)]);
            s.flush(&cost);
            write_words(&mut s, 4, &[(0, 0)]);
            s.flush(&cost);
            s
        };
        let entries = |s: &mut DsmState, reqs: &[(PageId, u32)], carry| {
            let mut msg = DiffBatch::message();
            let mut charges = Vec::new();
            s.put_entries(&mut msg, reqs.iter().copied(), carry, &cost, |us| {
                charges.push(us)
            });
            let msg = Landed::new(s.finish_message(msg));
            let mut r = msg.reader();
            let got: Vec<_> = protocol::decode_diff_entries(&msg, &mut r)
                .map(|e| (e.page, e.range.lo, e.range.hi, e.range.diff))
                .collect();
            assert!(r.is_exhausted());
            (got, charges)
        };

        let mut s = written();
        let (got, charges) = entries(&mut s, &[(3, 1), (4, 1), (9, 1)], Carry::History);
        let spans: Vec<_> = got
            .iter()
            .map(|&(page, lo, hi, _)| (page, lo, hi))
            .collect();
        assert_eq!(spans, [(3, 1, 1), (3, 2, 2), (4, 3, 3)]);
        assert!(charges[0] > 0.0 && charges[2] == 0.0, "{charges:?}");
        let kept = s.frozen_from(3, 1);
        assert_eq!(kept.len(), 2);
        let pins = |i: usize| kept[i].diff.shares_buffer_with(&got[i].3);
        assert!(!pins(0), "copied into it");
        assert!(!pins(1), "frozen into it, but sealed apart from the copy");
        assert_eq!(
            (kept[0].diff.clone(), kept[1].diff.clone()),
            (got[0].3.clone(), got[1].3.clone())
        );
        let unchanged = &s.frozen_from(4, 1)[0].diff;
        assert!(unchanged.is_empty() && unchanged.shares_buffer_with(&Diff::default()));

        // The newest range only: page 3's open one, nothing copied.
        let mut s = written();
        let (got, _) = entries(&mut s, &[(3, 1)], Carry::Newest);
        assert_eq!((got.len(), got[0].1), (1, 2));
        let newest = &s.newest_frozen(3, 2).unwrap().diff;
        assert!(newest.shares_buffer_with(&got[0].3), "a window onto it");
        // Once frozen, the newest is a copy.
        let (again, charges) = entries(&mut s, &[(3, 1)], Carry::Newest);
        assert_eq!(
            (again[0].1, again[0].3.clone(), charges),
            (2, got[0].3.clone(), vec![0.0])
        );
        assert!(s.has_range_from(3, 2) && !s.has_range_from(3, 3));
    }

    #[test]
    fn flush_creates_interval_and_notice() {
        let mut s = state(1, 4);
        write_words(&mut s, 7, &[(0, 42)]);
        s.flush(&CostModel::sp2());
        assert_eq!(s.vc[1], 1);
        assert_eq!(s.log[1].len(), 1);
        assert_eq!(s.log[1][0], Interval::seal(1, 1, 1, &[7]));
        assert_eq!(s.log[1][0].pages(), [7]);
        assert_eq!(s.notices.latest(7).unwrap(), [0, 1, 0, 0]);
        assert!(
            s.dirty.is_empty() && s.dirty.capacity() > 0,
            "cleared, kept"
        );
        // Lazy diffing: the twin survives the release; it is dropped only
        // when the diff is materialized by a request.
        assert!(s.frames.meta(7).unwrap().twin.is_some());
        // Our own write is considered applied locally.
        assert_eq!(s.frames.applied(7).unwrap()[1], 1);
    }

    #[test]
    fn empty_flush_is_free_and_silent() {
        let mut s = state(0, 2);
        let (us, iv) = s.flush(&CostModel::sp2());
        assert_eq!(us, 0.0);
        assert!(iv.is_none());
        assert_eq!(s.vc[0], 0);
        assert!(s.log[0].is_empty());
    }

    #[test]
    fn unserved_intervals_coalesce_into_one_open_range() {
        let mut s = state(0, 2);
        for k in 0..5u64 {
            write_words(&mut s, 3, &[(k as usize, k + 1)]);
            s.flush(&CostModel::sp2());
        }
        let pd = &s.pages.get(3).unwrap().diffs;
        assert!(pd.frozen.is_empty());
        let open = pd.open.as_ref().unwrap();
        assert_eq!((open.lo, open.hi), (1, 5));
        // No diff materialized yet, and the single twin is retained.
        assert_eq!(s.stats.diffs_created, 0);
        assert!(s.frames.meta(3).unwrap().twin.is_some());
        // Materializing covers all five writes at once.
        let (ranges, us) = serve(&mut s, 3, 1);
        assert!(us > 0.0);
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].diff.changed_words(), 5);
        assert!(
            s.frames.meta(3).unwrap().twin.is_none(),
            "page re-protected after serve"
        );
    }

    #[test]
    fn serve_freezes_and_next_flush_opens_new_range() {
        let mut s = state(0, 2);
        write_words(&mut s, 3, &[(0, 1)]);
        s.flush(&CostModel::sp2());
        let (ranges, _) = serve(&mut s, 3, 1);
        assert_eq!(ranges.len(), 1);
        assert_eq!((ranges[0].lo, ranges[0].hi), (1, 1));
        assert_eq!(ranges[0].diff.changed_words(), 1);
        // New write after the serve goes to a fresh accumulator.
        write_words(&mut s, 3, &[(1, 2)]);
        s.flush(&CostModel::sp2());
        let pd = &s.pages.get(3).unwrap().diffs;
        assert_eq!(pd.frozen.len(), 1);
        let open = pd.open.as_ref().unwrap();
        assert_eq!((open.lo, open.hi), (2, 2));
        // A requester that already has seq 1 only gets the new range.
        let (ranges, _) = serve(&mut s, 3, 2);
        assert_eq!(ranges.len(), 1);
        assert_eq!((ranges[0].lo, ranges[0].hi), (2, 2));
        // A brand-new requester gets both.
        let (ranges, _) = serve(&mut s, 3, 1);
        assert_eq!(ranges.len(), 2);
    }

    #[test]
    fn serve_materializes_at_the_published_image_not_the_live_frame() {
        let mut s = state(0, 2);
        write_words(&mut s, 3, &[(0, 1)]);
        s.flush(&CostModel::sp2());
        // Re-dirty fault: the write-enable path snapshots the page while
        // an open range exists (dsm.rs does this), before the next
        // epoch's writes land.
        assert!(!s.frames.write_enable(3, true, |_| unreachable!("twinned")));
        write_words(&mut s, 3, &[(1, 2)]);
        // A serve scheduled while the next epoch is mid-write must
        // not leak word 1 backward through virtual time.
        let (ranges, _) = serve(&mut s, 3, 1);
        assert_eq!(ranges.len(), 1);
        assert_eq!((ranges[0].lo, ranges[0].hi), (1, 1));
        assert_eq!(ranges[0].diff.changed_positions(), vec![0]);
        // Dirty page: the twin survives the freeze, re-anchored at the
        // served snapshot (the published image is consumed by that).
        assert!(s.frames.meta(3).unwrap().published.is_none());
        assert_eq!(
            s.frames.meta(3).unwrap().twin.as_ref().unwrap()[0],
            1,
            "re-anchored"
        );
        // Once the open epoch flushes, its word is served normally — and
        // ONLY its word: the re-anchored baseline keeps the new range
        // disjoint from the one already frozen, so applying it elsewhere
        // can never roll back a concurrent writer's word 0.
        s.flush(&CostModel::sp2());
        let (ranges, _) = serve(&mut s, 3, 2);
        assert_eq!(ranges.len(), 1);
        assert_eq!(ranges[0].diff.changed_positions(), vec![1]);
        // Clean page after the serve: both buffers retire together.
        assert!(s.frames.meta(3).unwrap().twin.is_none());
        assert!(s.frames.meta(3).unwrap().published.is_none());
    }

    #[test]
    fn flush_records_per_interval_write_provenance() {
        let mut s = DsmState::new(0, 2, TmkConfig::default().with_race_detection(true));
        write_words(&mut s, 3, &[(0, 1), (2, 5)]);
        s.flush(&CostModel::sp2());
        write_words(&mut s, 3, &[(1, 2)]);
        write_words(&mut s, 9, &[(4, 4)]);
        s.flush(&CostModel::sp2());
        let log = s.race.as_ref().unwrap();
        assert_eq!(log.node, 0);
        assert_eq!(log.intervals.len(), 2);
        assert_eq!(log.intervals[0].seq, 1);
        assert_eq!(log.intervals[0].writes, vec![(3, vec![0, 2])]);
        // The second interval records only its own words: the published
        // image re-anchors the delta at every flush.
        assert_eq!(log.intervals[1].seq, 2);
        assert_eq!(log.intervals[1].writes, vec![(3, vec![1]), (9, vec![4])]);
        assert_eq!(log.intervals[1].vc, vec![2, 0]);
    }

    #[test]
    fn integrate_interval_is_idempotent_and_ordered() {
        let mut s = state(0, 3);
        let iv = Interval::seal(2, 1, 4, &[11]);
        assert!(s.integrate_interval(iv.clone(), &CostModel::sp2()));
        assert!(!s.integrate_interval(iv, &CostModel::sp2()));
        assert_eq!(s.vc[2], 1);
        assert_eq!(s.lamport, 4);
        assert_eq!(s.notices.latest(11).unwrap(), [0, 0, 1]);
        assert!(
            s.pages.get(11).is_none(),
            "a notice for a page this node never touches makes no row"
        );
    }

    /// A range keeps the stamp of the interval that opened it, and a
    /// foreign notice for its page closes it: the next flush opens a
    /// range stamped after that notice. The first message that carries
    /// the closed range pays for its creation, once.
    #[test]
    fn a_foreign_notice_closes_the_open_range_it_names() {
        let cost = CostModel::sp2();
        let mut s = state(0, 3);
        write_words(&mut s, 3, &[(0, 1)]);
        s.flush(&cost);
        write_words(&mut s, 3, &[(1, 2)]);
        write_words(&mut s, 4, &[(0, 1)]);
        s.flush(&cost);
        let open = |s: &DsmState, page| s.pages.get(page).unwrap().diffs.open;
        let stamp = |r: OpenRange| (r.lo, r.hi, r.lamport);
        assert_eq!(open(&s, 3).map(stamp), Some((1, 2, 1)), "the opening stamp");
        // Node 1's interval names page 3 and a page never written here.
        assert!(s.integrate_interval(Interval::seal(1, 1, 5, &[3, 5]), &cost));
        assert!(open(&s, 3).is_none());
        assert!(open(&s, 4).is_some(), "a page it does not name stays open");
        let frozen = &s.frozen_from(3, 1)[0];
        assert_eq!((frozen.lo, frozen.hi, frozen.lamport), (1, 2, 1));
        assert_eq!(frozen.diff.changed_positions(), [0, 1]);
        assert!(frozen.unpaid);
        assert_eq!(s.stats.diffs_created, 1);
        write_words(&mut s, 3, &[(2, 3)]);
        s.flush(&cost);
        assert_eq!(open(&s, 3).map(stamp), Some((3, 3, 6)), "after the notice");
        // Old news freezes nothing.
        assert!(!s.integrate_interval(Interval::seal(1, 1, 5, &[3]), &cost));
        assert!(open(&s, 3).is_some());
        let serve = |s: &mut DsmState| {
            let (mut msg, mut charges) = (DiffBatch::message(), Vec::new());
            s.put_entries(&mut msg, [(3, 1)], Carry::History, &cost, |us| {
                charges.push(us)
            });
            s.finish_message(msg);
            charges
        };
        let paid = cost.diff_create_us(2) + cost.diff_create_us(1);
        assert_eq!(serve(&mut s), [paid], "the closed range and the open one");
        assert!(s.frozen_from(3, 1).iter().all(|r| !r.unpaid));
        assert_eq!(serve(&mut s), [0.0], "paid once");
    }

    /// A range applies only once every unapplied notice for its page
    /// that sorts before its `(lamport, writer)` has: another writer's,
    /// or its own writer's older one (a gap).
    #[test]
    fn a_range_waits_for_every_unapplied_notice_that_sorts_before_it() {
        let cost = CostModel::sp2();
        let mut s = state(0, 3);
        s.integrate_interval(Interval::seal(1, 1, 2, &[5]), &cost);
        s.integrate_interval(Interval::seal(2, 1, 3, &[5]), &cost);
        s.integrate_interval(Interval::seal(2, 2, 4, &[5]), &cost);
        assert!(!s.notice_before(5, (2, 1)), "its own first notice");
        assert!(s.notice_before(5, (3, 2)), "writer 1's notice first");
        s.frames.frame_mut(5).applied[1] = 1;
        assert!(!s.notice_before(5, (3, 2)));
        assert!(s.notice_before(5, (4, 2)), "skips writer 2's interval 1");
        assert!(!s.notice_before(6, (9, 2)), "a page no notice names");
    }

    /// What keeps a departure alive is the interval log: a window per
    /// integrated interval, nothing else, and it dies with the log.
    #[test]
    fn the_log_keeps_a_departure_payload_alive_until_it_is_dropped() {
        use crate::diff::Landed;
        use crate::protocol::{decode_departure, encode_departure};

        let ivs = [
            Interval::seal(1, 1, 3, &[5, 6]),
            Interval::seal(2, 1, 4, &[]),
            Interval::seal(1, 2, 5, &[6]),
        ];
        let msg = Landed::new(encode_departure(7, 0, 0, &[1, 2], ivs.iter(), &[]));
        assert_eq!(msg.refs(), 1);
        let mut s = state(0, 3);
        // Node 2's interval is old news here: integrated from a sealed
        // copy, so the departure's window onto it is not kept.
        assert!(s.integrate_interval(ivs[1].clone(), &CostModel::sp2()));
        for iv in decode_departure(&msg).intervals {
            s.integrate_interval(iv, &CostModel::sp2());
        }
        assert_eq!(msg.refs(), 3, "this handle and two log entries");
        assert_eq!(s.log[1], [ivs[0].clone(), ivs[2].clone()]);
        assert_eq!(s.log[1][1].message_refs(), Some(3));
        assert_eq!(s.log[2][0].message_refs(), None, "the sealed copy");
        assert_eq!(s.notices.latest(6).unwrap(), [0, 2, 0]);
        // The words are the message's own, not a copy of them.
        assert!(std::ptr::eq(s.log[1][1].words(), &msg.words()[18..23]));
        drop(s);
        assert_eq!(msg.refs(), 1, "dropping the log frees the payload");
    }

    #[test]
    fn missing_notices_report_unapplied() {
        let mut s = state(0, 3);
        for seq in 1..=3 {
            s.integrate_interval(Interval::seal(1, seq, seq as u64, &[5]), &CostModel::sp2());
        }
        let missing = |s: &mut DsmState| -> Vec<(usize, u32)> {
            let applied = s.frames.applied(5);
            let out: Vec<(usize, u32)> = (1..3)
                .filter_map(|w| {
                    let done = applied.map_or(0, |a| a[w]);
                    let first = s.notices.first_after(5, w, done, &s.log[w]);
                    first.map(|first| (w, first))
                })
                .collect();
            assert_eq!(s.notices.any_missing(5, 0, applied), !out.is_empty());
            out
        };
        assert_eq!(missing(&mut s), vec![(1, 1)]);
        // Apply up to seq 2: only seq 3 is missing.
        s.frames.frame_mut(5).applied[1] = 2;
        assert_eq!(missing(&mut s), vec![(1, 3)]);
        s.frames.frame_mut(5).applied[1] = 3;
        assert!(missing(&mut s).is_empty());
        assert!(
            !s.notices.any_missing(4, 0, s.frames.applied(4)),
            "a page no notice names is valid"
        );
    }

    #[test]
    fn intervals_since_filters_by_vc() {
        let mut s = state(0, 2);
        write_words(&mut s, 1, &[(0, 9)]);
        s.flush(&CostModel::sp2());
        write_words(&mut s, 2, &[(0, 9)]);
        s.flush(&CostModel::sp2());
        let now = s.vc.clone();
        assert_eq!(s.intervals_since([0, 0].into_iter(), &now).count(), 2);
        let unseen: Vec<&Interval> = s.intervals_since([1, 0].into_iter(), &now).collect();
        assert_eq!(unseen, [&s.log[0][1]]);
        assert_eq!(s.intervals_since([2, 0].into_iter(), &now).count(), 0);
        // A clock ahead of this log (a lock requester may know more of a
        // third node than the granter) is owed nothing.
        assert_eq!(s.intervals_since([3, 1].into_iter(), &now).count(), 0);
        // Bounded by an older clock (a fork's), the newer interval stays.
        let before: Vec<&Interval> = s.intervals_since([0, 0].into_iter(), &[1, 0]).collect();
        assert_eq!(before, [&s.log[0][0]]);
        assert_eq!(s.intervals_since([1, 0].into_iter(), &[1, 0]).count(), 0);
    }

    #[test]
    fn take_unreported_returns_each_interval_once() {
        let mut s = state(0, 2);
        write_words(&mut s, 1, &[(0, 1)]);
        s.flush(&CostModel::sp2());
        assert_eq!(s.take_unreported(), 0..1);
        assert_eq!(s.take_unreported(), 1..1);
        write_words(&mut s, 1, &[(1, 1)]);
        s.flush(&CostModel::sp2());
        write_words(&mut s, 1, &[(2, 1)]);
        s.flush(&CostModel::sp2());
        assert_eq!(s.take_unreported(), 1..3);
    }

    #[test]
    fn reduce_contribute_combines_in_rank_order() {
        // Node 0 of 4 has children 1 and 2; completion requires the local
        // deposit plus both subtree parts, in any arrival order.
        let mut s = state(0, 4);
        assert!(s
            .reduce_contribute(5, Some(2), vec![30.0], ReduceOp::Sum)
            .is_none());
        assert!(s
            .reduce_contribute(5, None, vec![1.0], ReduceOp::Sum)
            .is_none());
        let total = s.reduce_contribute(5, Some(1), vec![20.0], ReduceOp::Sum);
        assert_eq!(total, Some(vec![51.0]));
        assert!(s.reduces.is_empty(), "slot consumed");

        // Min combines exactly and order-insensitively.
        let mut s = state(0, 2);
        assert!(s
            .reduce_contribute(0, Some(1), vec![3.0], ReduceOp::Min)
            .is_none());
        let total = s.reduce_contribute(0, None, vec![7.0], ReduceOp::Min);
        assert_eq!(total, Some(vec![3.0]));
    }

    #[test]
    fn apply_range_updates_frame_and_applied() {
        let mut s0 = state(0, 2);
        let mut s1 = state(1, 2);
        // Node 1 writes and flushes; node 0 fetches.
        write_words(&mut s1, 4, &[(2, 77)]);
        s1.flush(&CostModel::sp2());
        let (ranges, _) = serve(&mut s1, 4, 1);
        for r in &ranges {
            s0.apply_range(4, 1, r.hi, &r.diff);
        }
        assert_eq!(s0.frames.data(4).unwrap()[2], 77);
        assert_eq!(s0.frames.applied(4).unwrap()[1], 1);
    }
}
