//! The per-node DSM state machine, shared between the application thread
//! and the protocol service thread under a mutex.
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
//! Diffs are applied in `(lamport, node)` order, a linear extension of
//! happens-before over intervals; concurrent intervals only ever write
//! disjoint words (the multiple-writer guarantee) so their relative
//! order is irrelevant. A materialized diff may include words of the
//! writer's *open* epoch; a data-race-free program never reads such
//! words before its next synchronization, and the notice/`applied`
//! bookkeeping refetches the final values afterwards (validated by the
//! bitwise cross-version application tests).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use sp2sim::{CostModel, VTime};

use crate::config::TmkConfig;
use crate::diff::Diff;
use crate::fxhash::FxHashMap;
use crate::interval::Interval;
use crate::page::{FrameStore, PageId};
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
    /// Lamport stamp of the `hi` interval.
    pub lamport_hi: u64,
}

/// An immutable (frozen) diff covering intervals `lo..=hi` of this node
/// for one page.
#[derive(Clone, Debug)]
pub struct DiffRange {
    /// First covered sequence number.
    pub lo: u32,
    /// Last covered sequence number.
    pub hi: u32,
    /// Lamport stamp of the `hi` interval.
    pub lamport: u64,
    /// The diff.
    pub diff: Arc<Diff>,
}

/// Diff storage for one page this node has written.
#[derive(Debug, Default)]
pub struct PageDiffs {
    /// Frozen ranges in increasing `lo` order.
    pub frozen: Vec<DiffRange>,
    /// The open (unmaterialized) range, if any interval since the last
    /// freeze wrote this page.
    pub open: Option<OpenRange>,
}

/// Write-notice history for one page, stored per writer.
///
/// Kept as per-writer ascending sequence-number lists rather than one
/// flat arrival-order vector: the fault path asks "first sequence above
/// my applied watermark" for every writer on every view construction,
/// and a flat list makes that O(all notices ever) — quadratic over a
/// run as epochs accumulate. Per-creator intervals integrate in order,
/// so each list is sorted by construction and every query is a binary
/// search. The stored Lamport stamps were never consumed (ordering uses
/// the stamps carried by diff ranges), so only sequence numbers remain.
#[derive(Clone, Debug, Default)]
pub struct PageNotices {
    /// `seqs[w]`: interval sequence numbers of writer `w` that wrote
    /// this page, ascending. Sized lazily on first push.
    seqs: Vec<Vec<u32>>,
}

impl PageNotices {
    /// Record that interval `seq` of `node` wrote this page (`n` nodes).
    pub fn push(&mut self, n: usize, node: usize, seq: u32) {
        if self.seqs.is_empty() {
            self.seqs = vec![Vec::new(); n];
        }
        let list = &mut self.seqs[node];
        debug_assert!(
            !list.iter().any(|&s| s >= seq),
            "per-creator notices arrive in ascending order"
        );
        list.push(seq);
    }

    /// Total notices recorded for this page.
    pub fn len(&self) -> usize {
        self.seqs.iter().map(Vec::len).sum()
    }

    /// True when no notice has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest recorded sequence number of `writer` (0 if none).
    pub fn max_seq(&self, writer: usize) -> u32 {
        self.seqs
            .get(writer)
            .and_then(|l| l.last().copied())
            .unwrap_or(0)
    }

    /// First recorded sequence of `writer` strictly above `done`.
    pub fn first_after(&self, writer: usize, done: u32) -> Option<u32> {
        let list = self.seqs.get(writer)?;
        let i = list.partition_point(|&s| s <= done);
        list.get(i).copied()
    }

    /// Notices not yet reflected in a frame whose per-writer watermarks
    /// are `applied` (`None`: no frame, nothing applied), skipping `me`'s
    /// own: `(writer, first missing seq)`, ascending by writer.
    pub fn missing<'a>(
        &'a self,
        me: usize,
        applied: Option<&'a [u32]>,
    ) -> impl Iterator<Item = (usize, u32)> + 'a {
        self.seqs
            .iter()
            .enumerate()
            .filter(move |(w, _)| *w != me)
            .filter_map(move |(w, _)| {
                let done = applied.map_or(0, |a| a[w]);
                self.first_after(w, done).map(|first| (w, first))
            })
    }

    /// True if `writer` has a recorded sequence in the open interval
    /// `(lo, hi)` — the push gap check.
    pub fn any_between(&self, writer: usize, lo: u32, hi: u32) -> bool {
        self.first_after(writer, lo).is_some_and(|s| s < hi)
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
        let mut buf = match self.bufs.pop() {
            Some(b) => {
                self.held_bytes -= 8 * b.capacity() as u64;
                stats.arena_hits += 1;
                b
            }
            None => {
                stats.arena_misses += 1;
                Vec::with_capacity(src.len())
            }
        };
        buf.clear();
        buf.extend_from_slice(src);
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

/// The combining operator of a direct reduction. Sum is what SPF's
/// reduction directives emit most; Min/Max cover the comparison
/// reductions (IGrid's centre-square min/max). Min and Max are exact
/// and order-insensitive, so a tree combine returns bitwise the same
/// value as any sequential fold; Sum is deterministic (fixed tree
/// order) but not bitwise equal to a left fold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise addition.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

impl ReduceOp {
    /// Combine two values.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    /// Wire code.
    pub fn code(self) -> u64 {
        match self {
            ReduceOp::Sum => 0,
            ReduceOp::Min => 1,
            ReduceOp::Max => 2,
        }
    }

    /// Decode a wire code (unknown codes combine as Sum, the legacy
    /// behaviour — senders in this codebase always encode a valid op).
    pub fn from_code(code: u64) -> ReduceOp {
        match code {
            1 => ReduceOp::Min,
            2 => ReduceOp::Max,
            _ => ReduceOp::Sum,
        }
    }
}

/// One in-flight direct reduction at a combine-tree node: the children's
/// partials (combined by the service thread) plus the local partial
/// (deposited by the application thread). Whichever side completes the
/// slot forwards the combined value up the tree.
#[derive(Debug, Default)]
pub struct ReduceSlot {
    /// Subtree partials received from children, keyed by child rank.
    pub parts: BTreeMap<usize, Vec<f64>>,
    /// This node's own partial, once deposited.
    pub local: Option<Vec<f64>>,
}

/// One in-flight *windowed ordered* reduction at the gather root (node
/// 0): unlike [`ReduceSlot`] the contributions cannot be combined en
/// route — folding a subtree early would change the addition grouping,
/// and the whole point is a result bitwise identical to a sequential
/// ascending-node fold (NBF's interaction-list force merge). With
/// nothing to combine, a tree only re-serializes the same windows on
/// every level, so the transport is a flat gather: every node sends its
/// window straight to the root, which folds in rank order and scatters
/// each node exactly the result range it declared it needs. Same
/// `2 (n - 1)` message count as the scalar tree, parallel wires.
#[derive(Debug, Default)]
pub struct ReduceListSlot {
    /// Windows received from peers, keyed by sender.
    pub parts: BTreeMap<usize, Vec<crate::protocol::ReduceWindow>>,
    /// The root's own window, once deposited.
    pub local: Option<crate::protocol::ReduceWindow>,
}

/// Children of `rank` in the binomial combine tree rooted at 0
/// (ascending rank order — the deterministic combine order).
pub fn reduce_children(rank: usize, n: usize) -> Vec<usize> {
    let lsb = if rank == 0 {
        n.next_power_of_two()
    } else {
        rank & rank.wrapping_neg()
    };
    let mut out = Vec::new();
    let mut m = 1;
    while m < lsb {
        let c = rank | m;
        if c < n && c != rank {
            out.push(c);
        }
        m <<= 1;
    }
    out
}

/// Parent of `rank != 0` in the binomial combine tree.
pub fn reduce_parent(rank: usize) -> usize {
    debug_assert_ne!(rank, 0);
    rank & (rank - 1)
}

/// An HLRC page request the home could not yet answer: some flush it
/// needs (per the requester's watermarks) has not arrived. Retried on
/// every incoming home flush.
#[derive(Debug)]
pub struct WaitingPageReq {
    /// Request id (echoed in the response tag).
    pub req_id: u32,
    /// Requesting node.
    pub requester: usize,
    /// Requested pages with their per-writer required watermarks.
    pub entries: Vec<crate::protocol::PageReqEntry>,
    /// Virtual arrival time of the request.
    pub arrival: VTime,
    /// Correlation id of the request packet (causal anchor when the
    /// deferred response ends up bounded by its own request, not by the
    /// flush that completed it).
    pub seq: u64,
}

/// HLRC home-side state of one page homed at this node.
///
/// The home copy is deliberately **not** the node's working frame: the
/// frame contains local writes the moment they commit, published or
/// not, while a served page must reflect *exactly* the publication
/// state the requester's watermarks demand. The paper's applications
/// exploit LRC's laziness (e.g. the Shallow master rewrites boundary
/// columns concurrently with the workers' interior sweeps, relying on
/// those writes staying invisible until the next barrier), so serving
/// anything newer than requested — unpublished words, or published
/// intervals the requester has no notice for — silently changes what a
/// concurrent reader computes. Instead the home buffers every
/// published diff range (remote flushes and its own release-frozen
/// diffs alike) and constructs each response by applying, onto the
/// zero base, the ranges with `hi <= required[w]`, in `(lamport,
/// writer)` order — making the response a pure function of the
/// requester's happens-before, independent of message timing. The
/// buffered history mirrors what LRC's writers retain as frozen diffs.
#[derive(Debug, Default)]
pub struct HomePage {
    /// Buffered published diff ranges, `(writer, range)`, arrival order.
    pub ranges: Vec<(usize, DiffRange)>,
    /// Promoted base `(data, applied)`: the folded image of every range
    /// the rendezvous min-VC proved all nodes have passed (home-copy
    /// pruning). Every future request's watermarks are ≥ the base's, so
    /// constructions start here instead of the zero page and the folded
    /// ranges are dropped from `ranges`.
    base: Option<(Vec<u64>, Vec<u32>)>,
    /// Memoized last construction `(required, data, applied)`: a request
    /// with component-wise ≥ watermarks extends it by applying only the
    /// newly covered ranges, so steady-state serving is O(new diffs) like
    /// an LRC fault, not O(history).
    cache: Option<(Vec<u32>, Vec<u64>, Vec<u32>)>,
}

/// One recorded barrier/worker arrival at the manager.
#[derive(Debug)]
pub struct Arrival {
    /// Arriving node.
    pub src: usize,
    /// Its vector clock at the arrival.
    pub vc: Vc,
    /// Virtual arrival time at the manager.
    pub at: VTime,
    /// Pushes to expect per destination.
    pub push_counts: Vec<u64>,
    /// Correlation id of the arrival packet (the causal anchor of the
    /// epoch's departures when this arrival is the critical one).
    pub seq: u64,
}

/// Barrier/fork-join bookkeeping for one epoch at the manager.
#[derive(Debug, Default)]
pub struct EpochState {
    /// Arrivals received so far.
    pub arrivals: Vec<Arrival>,
    /// Push counts carried by the master's fork (pushes the master sent
    /// right before dispatching this epoch's loop).
    pub fork_push: Vec<u64>,
    /// Master fork control payload, once `fork` was called this epoch.
    pub fork_ctl: Option<Vec<u64>>,
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
    /// Interval log, indexed by creator, ascending sequence numbers.
    pub log: Vec<Vec<Arc<Interval>>>,
    /// Write notices per page, per writer (see [`PageNotices`]).
    pub notices: FxHashMap<PageId, PageNotices>,
    /// Cached page frames, in extents (see [`crate::page`]).
    pub frames: FrameStore,
    /// Pages written since the last flush (BTreeSet: deterministic order).
    pub dirty: BTreeSet<PageId>,
    /// Diff storage for pages we have written.
    pub diffs: FxHashMap<PageId, PageDiffs>,
    /// Our own intervals not yet reported to the barrier manager.
    pub unreported_seq: u32,
    /// Lock state where we are (or were) the holder.
    pub locks: FxHashMap<u32, LockLocal>,
    /// Manager-side: last node a lock was directed to.
    pub lock_owner: FxHashMap<u32, usize>,
    /// Manager-side barrier state per epoch.
    pub epochs: BTreeMap<u64, EpochState>,
    /// Manager-side: intervals received in arrivals, buffered until epoch
    /// completion (the local application must not observe future write
    /// notices mid-epoch).
    pub pending_ivs: BTreeMap<u64, Vec<Interval>>,
    /// Pushes registered for the next synchronization rendezvous
    /// (barrier, worker arrival or master fork): `(target, page)`.
    pub pending_push: Vec<(usize, PageId)>,
    /// In-flight direct reductions, keyed by reduction sequence number.
    pub reduces: BTreeMap<u64, ReduceSlot>,
    /// In-flight windowed ordered reductions at the gather root, keyed
    /// by sequence number (a separate number space from
    /// [`DsmState::reduces`]).
    pub reduce_lists: BTreeMap<u64, ReduceListSlot>,
    /// HLRC: per-page home overrides (block-cyclic `page % n` otherwise).
    /// Every node must install identical overrides, before the page's
    /// first write notice exists — see [`DsmState::set_home`].
    pub home_override: FxHashMap<PageId, usize>,
    /// HLRC home-side: the home copies of pages homed here, fed only by
    /// *published* diffs (remote writers' eager flushes, and our own
    /// frozen diffs buffered at release) — deliberately separate from
    /// [`DsmState::frames`], whose content includes local unpublished
    /// writes that must never be served.
    pub homed: FxHashMap<PageId, HomePage>,
    /// HLRC home-side: page requests deferred until the flushes they
    /// require arrive.
    pub waiting_page_reqs: Vec<WaitingPageReq>,
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
    /// Per-page sharing profile (always on; host-side only — see
    /// [`crate::profile`]).
    pub page_prof: FxHashMap<PageId, crate::profile::PageProfile>,
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
            notices: FxHashMap::default(),
            frames,
            dirty: BTreeSet::new(),
            diffs: FxHashMap::default(),
            unreported_seq: 0,
            locks: FxHashMap::default(),
            lock_owner: FxHashMap::default(),
            epochs: BTreeMap::new(),
            pending_ivs: BTreeMap::new(),
            pending_push: Vec::new(),
            reduces: BTreeMap::new(),
            reduce_lists: BTreeMap::new(),
            home_override: FxHashMap::default(),
            homed: FxHashMap::default(),
            waiting_page_reqs: Vec::new(),
            scratch: DiffScratch::default(),
            stats: DsmStats::default(),
            race: detect_races.then(|| RaceLog {
                node: me,
                intervals: Vec::new(),
            }),
            page_prof: FxHashMap::default(),
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

    // ------------------------------------------------------------------
    // HLRC home machinery
    // ------------------------------------------------------------------

    /// The home node of `page`: block-cyclic by default, overridden by
    /// [`DsmState::set_home`].
    pub fn home_of(&self, page: PageId) -> usize {
        self.home_override
            .get(&page)
            .copied()
            .unwrap_or(page % self.n)
    }

    /// Install a home override for `page`. Refused (returns `false`)
    /// once any write notice names the page: by then diffs may already
    /// live at the old home, and rehoming would lose them. Callers must
    /// install identical overrides on every node (the CRI hint engine
    /// evaluates the same descriptors everywhere, which guarantees it);
    /// the no-notice guard is consistent across nodes because notice
    /// sets agree at loop boundaries.
    pub fn set_home(&mut self, page: PageId, home: usize) -> bool {
        debug_assert!(home < self.n);
        if self.notices.contains_key(&page) {
            return false;
        }
        self.home_override.insert(page, home);
        true
    }

    /// The requester-side watermark vector for a page request: the
    /// highest interval sequence number this node has a write notice for,
    /// per writer. The home must have applied at least these before its
    /// copy is consistent for us.
    pub fn required_watermarks(&self, page: PageId) -> Vec<u32> {
        let mut req = vec![0u32; self.n];
        if let Some(pn) = self.notices.get(&page) {
            for (w, r) in req.iter_mut().enumerate() {
                *r = pn.max_seq(w);
            }
        }
        req
    }

    /// Home-side: buffer one published diff range from `writer` (a
    /// remote `HOME_FLUSH`, or our own release-frozen diff via
    /// [`DsmState::home_buffer_own`]). A range the home copy already
    /// holds — a duplicate delivery — is dropped and counted, the
    /// stale-flush guard: re-applying it during a later construction
    /// would overwrite newer words with old values. Returns `true` if
    /// the range was buffered.
    pub fn home_flush_in(&mut self, writer: usize, page: PageId, range: DiffRange) -> bool {
        let hp = self.homed.entry(page).or_default();
        let in_base = hp
            .base
            .as_ref()
            .is_some_and(|(_, applied)| applied[writer] >= range.hi);
        if in_base
            || hp
                .ranges
                .iter()
                .any(|(w, r)| *w == writer && r.hi >= range.hi)
        {
            self.stats.stale_flush_drops += 1;
            return false;
        }
        hp.cache = None;
        hp.ranges.push((writer, range));
        true
    }

    /// Home-side: buffer one of our *own* frozen diff ranges at release —
    /// the local leg of the eager flush, no message needed (our frame is
    /// the working copy; the home copy still needs the published range to
    /// serve others).
    pub fn home_buffer_own(&mut self, page: PageId, range: DiffRange) {
        let me = self.me;
        let hp = self.homed.entry(page).or_default();
        hp.cache = None;
        hp.ranges.push((me, range));
    }

    /// Home-side: can a copy of `page` satisfying `required` be
    /// constructed from the buffered ranges? When it cannot, the missing
    /// flush is still in flight (writers flush every interval at the
    /// release that publishes its notice, before the notice can reach
    /// any requester) and the request must wait.
    pub fn home_covers(&self, page: PageId, required: &[u32]) -> bool {
        let hp = self.homed.get(&page);
        required.iter().enumerate().all(|(w, &need)| {
            need == 0
                || hp.is_some_and(|hp| {
                    hp.base.as_ref().is_some_and(|(_, a)| a[w] >= need)
                        || hp.ranges.iter().any(|(wr, r)| *wr == w && r.hi >= need)
                })
        })
    }

    /// Home-side: construct the copy of `page` at exactly the `required`
    /// watermarks — the zero base plus every buffered range with
    /// `hi <= required[w]`, applied in `(lamport, writer)` order (a
    /// linear extension of happens-before, the same order the LRC fault
    /// path applies diffs). Returns `(data, applied, time to charge)`.
    /// Monotonically growing watermarks (the common case: every consumer
    /// of an epoch, then the next epoch) extend the memoized previous
    /// construction instead of replaying history.
    pub fn home_serve(
        &mut self,
        page: PageId,
        required: &[u32],
        cost: &CostModel,
    ) -> (Vec<u64>, Vec<u32>, f64) {
        let pw = self.cfg.page_words;
        let n = self.n;
        let hp = self.homed.entry(page).or_default();
        let (floor, mut data, mut applied) = match &hp.cache {
            Some((req, data, applied)) if req == required => {
                return (data.clone(), applied.clone(), 0.0);
            }
            Some((req, data, applied)) if req.iter().zip(required).all(|(c, r)| c <= r) => {
                (req.clone(), data.clone(), applied.clone())
            }
            // Fresh construction: start from the promoted base (every
            // requester's watermarks are ≥ the base's — see
            // `prune_home_copies`), or the zero page before any prune.
            _ => match &hp.base {
                Some((data, applied)) => (applied.clone(), data.clone(), applied.clone()),
                None => (vec![0u32; n], vec![0u64; pw], vec![0u32; n]),
            },
        };
        let mut batch: Vec<&(usize, DiffRange)> = hp
            .ranges
            .iter()
            .filter(|(w, r)| r.hi > floor[*w] && r.hi <= required[*w])
            .collect();
        batch.sort_by_key(|(w, r)| (r.lamport, *w));
        let mut us = 0.0;
        for (w, r) in batch {
            r.diff.apply(&mut data);
            if r.hi > applied[*w] {
                applied[*w] = r.hi;
            }
            us += cost.diff_apply_us(r.diff.encoded_words());
        }
        hp.cache = Some((required.to_vec(), data.clone(), applied.clone()));
        (data, applied, us)
    }

    /// HLRC home-copy pruning: fold every buffered range all nodes have
    /// provably passed into the promoted base and drop it.
    ///
    /// `min_vc` is the componentwise minimum of every participant's
    /// vector clock at a rendezvous (piggybacked on the departure). A
    /// range `(w, r)` with `r.hi <= min_vc[w]` is foldable: every node
    /// has integrated interval `r.hi` of `w`, and since that interval
    /// named this page, every node holds its write notice — so every
    /// future request's `required[w]` is at least `r.hi`, and no
    /// construction will ever need to start below the folded image.
    /// Deferred requests cannot be outstanding at a rendezvous (their
    /// requesters would still be blocked, and the rendezvous would not
    /// have completed), so folding is safe. Returns ranges dropped.
    pub fn prune_home_copies(&mut self, min_vc: &[u32]) -> u64 {
        let pw = self.cfg.page_words;
        let n = self.n;
        let mut dropped = 0;
        for hp in self.homed.values_mut() {
            if hp.ranges.iter().all(|(w, r)| r.hi > min_vc[*w]) {
                continue;
            }
            let mut fold: Vec<(usize, DiffRange)> = Vec::new();
            hp.ranges.retain(|(w, r)| {
                if r.hi <= min_vc[*w] {
                    fold.push((*w, r.clone()));
                    false
                } else {
                    true
                }
            });
            fold.sort_by_key(|(w, r)| (r.lamport, *w));
            let (data, applied) = hp
                .base
                .get_or_insert_with(|| (vec![0u64; pw], vec![0u32; n]));
            for (w, r) in &fold {
                r.diff.apply(data);
                if r.hi > applied[*w] {
                    applied[*w] = r.hi;
                }
            }
            // The memoized construction may now sit below the base
            // floor; drop it rather than reason about mixed floors.
            hp.cache = None;
            dropped += fold.len() as u64;
        }
        self.stats.home_ranges_pruned += dropped;
        dropped
    }

    /// Record one contribution to windowed ordered reduction `seq` at
    /// the gather root — a peer's window (`from = Some(sender)`) or the
    /// root's own deposit (`from = None`). When every peer's window and
    /// the local deposit are present, returns all windows sorted by
    /// contributing node — the fold order.
    pub fn reduce_list_contribute(
        &mut self,
        seq: u64,
        from: Option<usize>,
        windows: Vec<crate::protocol::ReduceWindow>,
    ) -> Option<Vec<crate::protocol::ReduceWindow>> {
        debug_assert_eq!(self.me, 0, "windowed reductions gather at node 0");
        let slot = self.reduce_lists.entry(seq).or_default();
        match from {
            Some(sender) => {
                slot.parts.insert(sender, windows);
            }
            None => {
                slot.local = windows.into_iter().next();
            }
        }
        let complete = slot.local.is_some() && slot.parts.len() == self.n - 1;
        if !complete {
            return None;
        }
        let slot = self.reduce_lists.remove(&seq).expect("slot exists");
        let mut out: Vec<crate::protocol::ReduceWindow> = slot.local.into_iter().collect();
        for (_, part) in slot.parts {
            out.extend(part);
        }
        out.sort_by_key(|w| w.node);
        Some(out)
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
        let nchildren = reduce_children(self.me, self.n).len();
        let complete = slot.local.is_some() && slot.parts.len() == nchildren;
        if !complete {
            return None;
        }
        let slot = self.reduces.remove(&seq).expect("slot exists");
        let mut acc = slot.local.expect("complete slot has a local partial");
        for (_, part) in slot.parts {
            for (a, b) in acc.iter_mut().zip(part) {
                *a = op.apply(*a, b);
            }
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

    /// Buffer arrival intervals for `epoch` (manager side).
    pub fn pending_intervals(&mut self, epoch: u64, intervals: Vec<Interval>) {
        if !intervals.is_empty() {
            self.pending_ivs.entry(epoch).or_default().extend(intervals);
        }
    }

    /// Integrate everything buffered for `epoch` (manager side, called at
    /// epoch completion while the local application is blocked in the
    /// rendezvous). Per-creator sequence order is restored before
    /// integration. Idempotent.
    pub fn integrate_pending(&mut self, epoch: u64) {
        if let Some(mut ivs) = self.pending_ivs.remove(&epoch) {
            ivs.sort_by_key(|iv| (iv.node, iv.seq));
            for iv in ivs {
                self.integrate_interval(iv);
            }
        }
    }

    /// Write notices for `page` that are not yet applied to our frame,
    /// grouped by writer: `(writer, first missing seq)`, ascending by
    /// writer. Borrows only `notices` and `frames`, so callers holding
    /// the state by `&mut` can update other fields while iterating.
    pub fn missing_by_writer<'a>(
        notices: &'a FxHashMap<PageId, PageNotices>,
        frames: &'a FrameStore,
        me: usize,
        page: PageId,
    ) -> impl Iterator<Item = (usize, u32)> + 'a {
        notices
            .get(&page)
            .into_iter()
            .flat_map(move |pn| pn.missing(me, frames.applied(page)))
    }

    /// Highest interval of `writer` already reflected in our frame of
    /// `page` (0 without a frame).
    pub fn applied_seq(&self, page: PageId, writer: usize) -> u32 {
        self.frames.applied(page).map_or(0, |a| a[writer])
    }

    /// Release operation: publish one interval carrying write notices for
    /// all dirty pages. Diff creation is *delayed*: the page keeps its
    /// twin and stays writable, and only the open-range metadata is
    /// extended — per real TreadMarks, a page nobody requests costs
    /// nothing per interval. Returns the (small) bookkeeping time to
    /// charge to the releasing thread.
    pub fn flush(&mut self, cost: &CostModel) -> f64 {
        if self.dirty.is_empty() {
            return 0.0;
        }
        let seq = self.vc[self.me] + 1;
        self.vc[self.me] = seq;
        self.lamport += 1;
        let lamport = self.lamport;
        let pages: Vec<PageId> = std::mem::take(&mut self.dirty).into_iter().collect();
        let mut race_writes: Vec<(PageId, Vec<u32>)> = Vec::new();
        for &p in &pages {
            let frame = self.frames.frame_mut(p);
            debug_assert!(frame.meta.twin.is_some(), "dirty page has a twin");
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
            // later wall-clock-time serve excludes the *next* epoch's
            // writes. With detection on the image is created eagerly
            // (per-interval deltas need a per-flush base); otherwise it
            // only exists once a re-dirty fault created it lazily.
            match frame.meta.published.as_mut() {
                Some(shot) => shot.copy_from_slice(frame.data),
                None if self.race.is_some() => frame.meta.published = Some(frame.data.to_vec()),
                None => {}
            }
            let entry = self.diffs.entry(p).or_default();
            let open = entry.open.get_or_insert(OpenRange {
                lo: seq,
                hi: seq,
                lamport_hi: lamport,
            });
            open.hi = seq;
            open.lamport_hi = lamport;
            frame.applied[self.me] = seq;
            let n = self.n;
            self.notices.entry(p).or_default().push(n, self.me, seq);
        }
        let us = pages.len() as f64 * cost.manager_us * 0.1;
        let epoch = self.epoch_proxy();
        for &p in &pages {
            self.page_prof
                .entry(p)
                .or_default()
                .record_writer(self.me, epoch);
        }
        let iv = Arc::new(Interval {
            node: self.me,
            seq,
            lamport,
            pages,
        });
        self.log[self.me].push(iv);
        self.stats.intervals_created += 1;
        if let Some(log) = &mut self.race {
            log.intervals.push(IntervalWrites {
                node: self.me,
                seq,
                lamport,
                vc: self.vc.clone(),
                writes: race_writes,
            });
        }
        us
    }

    /// Integrate an interval received from elsewhere. Idempotent; returns
    /// `true` if it was new.
    pub fn integrate_interval(&mut self, iv: Interval) -> bool {
        if iv.seq <= self.vc[iv.node] {
            return false;
        }
        debug_assert_eq!(
            iv.seq,
            self.vc[iv.node] + 1,
            "intervals from one creator integrate in order"
        );
        self.vc[iv.node] = iv.seq;
        if iv.lamport > self.lamport {
            self.lamport = iv.lamport;
        }
        let n = self.n;
        let epoch = self.epoch_proxy();
        for &p in &iv.pages {
            self.notices.entry(p).or_default().push(n, iv.node, iv.seq);
            self.page_prof
                .entry(p)
                .or_default()
                .record_writer(iv.node, epoch);
        }
        self.log[iv.node].push(Arc::new(iv));
        true
    }

    /// All intervals in our log that `their_vc` has not seen.
    pub fn intervals_since(&self, their_vc: &Vc) -> Vec<Arc<Interval>> {
        let mut out = Vec::new();
        for (creator, ivs) in self.log.iter().enumerate() {
            let known = their_vc[creator];
            // Sequence numbers are 1-based and dense: skip the first
            // `known` entries.
            for iv in ivs.iter().skip(known as usize) {
                debug_assert!(iv.seq > known);
                out.push(Arc::clone(iv));
            }
        }
        out
    }

    /// Our own intervals not yet reported via a barrier arrival.
    pub fn take_unreported(&mut self) -> Vec<Arc<Interval>> {
        let from = self.unreported_seq;
        self.unreported_seq = self.vc[self.me];
        self.log[self.me]
            .iter()
            .skip(from as usize)
            .cloned()
            .collect()
    }

    /// Serve a diff request for `page`, intervals `first_needed..`.
    ///
    /// Materializes (freezes) the open range if it is needed — this is
    /// where the twin comparison actually happens and is charged — then
    /// returns every frozen range with `hi >= first_needed`. After a
    /// freeze the twin is dropped (unless the page is dirty again), so
    /// the next local write re-faults and re-twins, exactly like the
    /// original system re-protecting a diffed page.
    ///
    /// The materialization compares the twin against the **published
    /// image** when one exists, never the live frame: on the threaded
    /// engine this call runs on the protocol service thread at an
    /// arbitrary wall-clock moment, and the live frame may already hold
    /// writes of the *next* open epoch — virtually ordered after the
    /// requester's read. Serving those words backward through virtual
    /// time is the divergence this image exists to prevent; `data` is a
    /// correct fallback only while the page has not been re-written
    /// since its last flush (then the two are identical).
    pub fn serve_diffs(
        &mut self,
        page: PageId,
        first_needed: u32,
        cost: &CostModel,
    ) -> (Vec<DiffRange>, f64) {
        let mut us = 0.0;
        let entry = self.diffs.entry(page).or_default();
        if let Some(open) = entry.open {
            if open.hi >= first_needed {
                entry.open = None;
                // Take both buffers out of the frame: the words themselves
                // are read only when there is no published image, i.e. the
                // page has not been write-enabled since its last flush — on
                // the threaded engine that is what keeps this read apart
                // from the application's in-place stores (`crate::page`,
                // invariant 4).
                let meta = self.frames.meta_mut(page).expect("open range has a frame");
                let twin = meta.twin.take().expect("open range has a twin");
                let published = meta.published.take();
                let diff = match &published {
                    Some(image) => Diff::create(&twin, image),
                    None => Diff::create(
                        &twin,
                        self.frames.data(page).expect("open range has a frame"),
                    ),
                };
                us += cost.diff_create_us(diff.changed_words());
                self.stats.diffs_created += 1;
                self.stats.diff_words_created += diff.changed_words() as u64;
                let pp = self.page_prof.entry(page).or_default();
                pp.diffs_created += 1;
                pp.diff_words_created += diff.changed_words() as u64;
                // Re-protect a clean page: the next write takes a fresh
                // fault+twin, and the published image retires with the
                // twin (they are a pair — the image is only meaningful
                // against its twin).
                //
                // A dirty page is mid-epoch, so a twin must survive — but
                // its baseline just moved: everything up to `open.hi` is
                // frozen into the served range now, and the next freeze
                // must diff against *this* snapshot, not the original
                // fault-time twin. Re-anchoring by promoting the published
                // image to be the new twin is what keeps ranges disjoint:
                // a twin left stale would make the next freeze re-include
                // every word served here, and re-applying those at a
                // concurrent writer would clobber that writer's own newer
                // values (the lost-warm-up divergence the threaded engine
                // exposed about once in 10^3 runs).
                if self.dirty.contains(&page) {
                    let image = published.expect(
                        "a dirty page with an open range was re-faulted, which snapshots the published image",
                    );
                    self.frames
                        .meta_mut(page)
                        .expect("open range has a frame")
                        .twin = Some(image);
                }
                // The retired twin goes back to the scratch arena.
                self.scratch.put(twin, &mut self.stats);
                let entry = self.diffs.entry(page).or_default();
                entry.frozen.push(DiffRange {
                    lo: open.lo,
                    hi: open.hi,
                    lamport: open.lamport_hi,
                    diff: Arc::new(diff),
                });
            }
        }
        let entry = self.diffs.entry(page).or_default();
        let ranges: Vec<DiffRange> = entry
            .frozen
            .iter()
            .filter(|r| r.hi >= first_needed)
            .cloned()
            .collect();
        (ranges, us)
    }

    /// Apply a fetched diff range from `writer` to our frame of `page`.
    /// Caller is responsible for ordering by `(lamport, writer)`.
    pub fn apply_range(&mut self, page: PageId, writer: usize, hi: u32, diff: &Diff) {
        let mut frame = self.frames.frame_mut(page);
        frame.apply_diff(diff);
        if hi > frame.applied[writer] {
            frame.applied[writer] = hi;
        }
        self.stats.diffs_applied += 1;
        self.page_prof.entry(page).or_default().diffs_applied += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(me: usize, n: usize) -> DsmState {
        DsmState::new(me, n, TmkConfig::default())
    }

    fn write_words(s: &mut DsmState, page: PageId, vals: &[(usize, u64)]) {
        let frame = s.frames.frame_mut(page);
        if frame.meta.twin.is_none() {
            frame.meta.twin = Some(frame.data.to_vec());
        }
        for &(i, v) in vals {
            frame.data[i] = v;
        }
        s.dirty.insert(page);
    }

    #[test]
    fn flush_creates_interval_and_notice() {
        let mut s = state(1, 4);
        write_words(&mut s, 7, &[(0, 42)]);
        s.flush(&CostModel::sp2());
        assert_eq!(s.vc[1], 1);
        assert_eq!(s.log[1].len(), 1);
        assert_eq!(s.log[1][0].pages, vec![7]);
        assert_eq!(s.notices[&7].len(), 1);
        assert!(s.dirty.is_empty());
        // Lazy diffing: the twin survives the release; it is dropped only
        // when the diff is materialized by a request.
        assert!(s.frames.meta(7).unwrap().twin.is_some());
        // Our own write is considered applied locally.
        assert_eq!(s.frames.applied(7).unwrap()[1], 1);
    }

    #[test]
    fn empty_flush_is_free_and_silent() {
        let mut s = state(0, 2);
        assert_eq!(s.flush(&CostModel::sp2()), 0.0);
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
        let pd = &s.diffs[&3];
        assert!(pd.frozen.is_empty());
        let open = pd.open.as_ref().unwrap();
        assert_eq!((open.lo, open.hi), (1, 5));
        // No diff materialized yet, and the single twin is retained.
        assert_eq!(s.stats.diffs_created, 0);
        assert!(s.frames.meta(3).unwrap().twin.is_some());
        // Materializing covers all five writes at once.
        let (ranges, us) = s.serve_diffs(3, 1, &CostModel::sp2());
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
        let (ranges, _) = s.serve_diffs(3, 1, &CostModel::sp2());
        assert_eq!(ranges.len(), 1);
        assert_eq!((ranges[0].lo, ranges[0].hi), (1, 1));
        assert_eq!(ranges[0].diff.changed_words(), 1);
        // New write after the serve goes to a fresh accumulator.
        write_words(&mut s, 3, &[(1, 2)]);
        s.flush(&CostModel::sp2());
        let pd = &s.diffs[&3];
        assert_eq!(pd.frozen.len(), 1);
        let open = pd.open.as_ref().unwrap();
        assert_eq!((open.lo, open.hi), (2, 2));
        // A requester that already has seq 1 only gets the new range.
        let (ranges, _) = s.serve_diffs(3, 2, &CostModel::sp2());
        assert_eq!(ranges.len(), 1);
        assert_eq!((ranges[0].lo, ranges[0].hi), (2, 2));
        // A brand-new requester gets both.
        let (ranges, _) = s.serve_diffs(3, 1, &CostModel::sp2());
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
        // A wall-clock-time serve while the next epoch is mid-write must
        // not leak word 1 backward through virtual time.
        let (ranges, _) = s.serve_diffs(3, 1, &CostModel::sp2());
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
        let (ranges, _) = s.serve_diffs(3, 2, &CostModel::sp2());
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
        let iv = Interval {
            node: 2,
            seq: 1,
            lamport: 4,
            pages: vec![11],
        };
        assert!(s.integrate_interval(iv.clone()));
        assert!(!s.integrate_interval(iv));
        assert_eq!(s.vc[2], 1);
        assert_eq!(s.lamport, 4);
        assert_eq!(s.notices[&11].len(), 1);
    }

    #[test]
    fn missing_by_writer_reports_unapplied() {
        let mut s = state(0, 3);
        for seq in 1..=3 {
            s.integrate_interval(Interval {
                node: 1,
                seq,
                lamport: seq as u64,
                pages: vec![5],
            });
        }
        let missing = |s: &DsmState| -> Vec<(usize, u32)> {
            DsmState::missing_by_writer(&s.notices, &s.frames, s.me, 5).collect()
        };
        assert_eq!(missing(&s), vec![(1, 1)]);
        // Apply up to seq 2: only seq 3 is missing.
        s.frames.frame_mut(5).applied[1] = 2;
        assert_eq!(missing(&s), vec![(1, 3)]);
        s.frames.frame_mut(5).applied[1] = 3;
        assert!(missing(&s).is_empty());
    }

    #[test]
    fn intervals_since_filters_by_vc() {
        let mut s = state(0, 2);
        write_words(&mut s, 1, &[(0, 9)]);
        s.flush(&CostModel::sp2());
        write_words(&mut s, 2, &[(0, 9)]);
        s.flush(&CostModel::sp2());
        assert_eq!(s.intervals_since(&vec![0, 0]).len(), 2);
        assert_eq!(s.intervals_since(&vec![1, 0]).len(), 1);
        assert_eq!(s.intervals_since(&vec![2, 0]).len(), 0);
    }

    #[test]
    fn take_unreported_returns_each_interval_once() {
        let mut s = state(0, 2);
        write_words(&mut s, 1, &[(0, 1)]);
        s.flush(&CostModel::sp2());
        assert_eq!(s.take_unreported().len(), 1);
        assert_eq!(s.take_unreported().len(), 0);
        write_words(&mut s, 1, &[(1, 1)]);
        s.flush(&CostModel::sp2());
        write_words(&mut s, 1, &[(2, 1)]);
        s.flush(&CostModel::sp2());
        assert_eq!(s.take_unreported().len(), 2);
    }

    #[test]
    fn reduce_tree_is_a_partition() {
        for n in 1..=9usize {
            // Every non-root rank has exactly one parent whose child list
            // contains it; the root has none.
            for r in 1..n {
                let p = reduce_parent(r);
                assert!(p < r, "parent below child rank");
                assert!(reduce_children(p, n).contains(&r), "n={n} r={r}");
            }
            let mut seen = vec![0u32; n];
            seen[0] += 1;
            for r in 0..n {
                for c in reduce_children(r, n) {
                    seen[c] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "each rank one parent, n={n}");
        }
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
    fn home_default_is_block_cyclic_and_override_guarded() {
        let mut s = state(0, 4);
        assert_eq!(s.home_of(0), 0);
        assert_eq!(s.home_of(5), 1);
        assert_eq!(s.home_of(7), 3);
        assert!(s.set_home(7, 2), "no notices yet: override accepted");
        assert_eq!(s.home_of(7), 2);
        // Once a notice names the page, rehoming is refused.
        s.integrate_interval(Interval {
            node: 1,
            seq: 1,
            lamport: 1,
            pages: vec![5],
        });
        assert!(!s.set_home(5, 0));
        assert_eq!(s.home_of(5), 1);
    }

    #[test]
    fn required_watermarks_track_notices() {
        let mut s = state(0, 3);
        assert_eq!(s.required_watermarks(4), vec![0, 0, 0]);
        for seq in 1..=2 {
            s.integrate_interval(Interval {
                node: 2,
                seq,
                lamport: seq as u64,
                pages: vec![4],
            });
        }
        assert_eq!(s.required_watermarks(4), vec![0, 0, 2]);
    }

    #[test]
    fn home_serve_constructs_at_watermarks_in_lamport_order() {
        let mut s = state(0, 3); // home side
        let cost = CostModel::sp2();
        // Writer 2's interval (lamport 5) causally follows writer 1's
        // (lamport 3) and overwrites its word; buffer them out of order.
        let d1 = Diff::create(&[0, 0], &[7, 7]); // writer 1 writes both
        let d2 = Diff::create(&[7, 7], &[9, 7]); // writer 2 overwrites [0]
        s.home_flush_in(
            2,
            0,
            DiffRange {
                lo: 1,
                hi: 1,
                lamport: 5,
                diff: Arc::new(d2),
            },
        );
        s.home_flush_in(
            1,
            0,
            DiffRange {
                lo: 1,
                hi: 1,
                lamport: 3,
                diff: Arc::new(d1.clone()),
            },
        );
        assert!(s.home_covers(0, &[0, 1, 1]));
        assert!(!s.home_covers(0, &[0, 2, 1]), "writer 1 seq 2 not flushed");
        let (data, applied, us) = s.home_serve(0, &[0, 1, 1], &cost);
        assert!(us > 0.0);
        // Lamport order: writer 1 first, then writer 2's overwrite wins.
        assert_eq!((data[0], data[1]), (9, 7));
        assert_eq!(applied, vec![0, 1, 1]);
        // Memoized: identical watermarks replay nothing.
        let (again, _, us2) = s.home_serve(0, &[0, 1, 1], &cost);
        assert_eq!(again[0], 9);
        assert_eq!(us2, 0.0);
        // A requester that has not synchronized with writer 2 must not
        // see its interval — the construction is exact, never ahead.
        let (old, old_applied, _) = s.home_serve(0, &[0, 1, 0], &cost);
        assert_eq!(old[0], 7, "unsynchronized interval stays invisible");
        assert_eq!(old_applied, vec![0, 1, 0]);
        // A duplicate flush is dropped at arrival — the stale-flush
        // guard (re-applying it during a later construction would
        // resurrect 7 over 9).
        assert!(!s.home_flush_in(
            1,
            0,
            DiffRange {
                lo: 1,
                hi: 1,
                lamport: 3,
                diff: Arc::new(d1),
            },
        ));
        assert_eq!(s.stats.stale_flush_drops, 1);
        let (data, _, _) = s.home_serve(0, &[0, 1, 1], &cost);
        assert_eq!(data[0], 9, "stale flush must not re-apply");
    }

    #[test]
    fn apply_range_updates_frame_and_applied() {
        let mut s0 = state(0, 2);
        let mut s1 = state(1, 2);
        // Node 1 writes and flushes; node 0 fetches.
        write_words(&mut s1, 4, &[(2, 77)]);
        s1.flush(&CostModel::sp2());
        let (ranges, _) = s1.serve_diffs(4, 1, &CostModel::sp2());
        for r in &ranges {
            s0.apply_range(4, 1, r.hi, &r.diff);
        }
        assert_eq!(s0.frames.data(4).unwrap()[2], 77);
        assert_eq!(s0.frames.applied(4).unwrap()[1], 1);
    }
}
