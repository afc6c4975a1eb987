//! Wire protocol: opcodes, tags and message encodings.
//!
//! Requests travel to a node's **service port**; replies, grants,
//! departures and data pushes travel to the **application port**. All
//! payloads are word streams built with [`sp2sim::WordWriter`].

use std::ops::{Deref, Range};

use sp2sim::{WordReader, WordWriter};

use crate::diff::{Diff, Landed};
use crate::interval::{encode_intervals, intervals_words, Interval, Intervals};
use crate::page::PageId;
use crate::state::DiffRange;
use crate::vc::Vc;

/// Service-port opcodes (first payload word).
pub mod op {
    /// Diff request.
    pub const DIFF_REQ: u64 = 1;
    /// Lock acquire request (direct or forwarded).
    pub const LOCK_REQ: u64 = 2;
    /// Barrier arrival (all nodes participate).
    pub const BARRIER_ARRIVE: u64 = 3;
    /// Worker arrival at the fork-join rendezvous.
    pub const WORKER_ARRIVE: u64 = 4;
    /// Master dispatches a parallel loop (one-to-all departure follows):
    /// to its own service, with its clock as it forks ([`super::Fork`]).
    pub const MASTER_FORK: u64 = 5;
    /// Master waits for workers (all-to-one arrival collection).
    pub const MASTER_JOIN: u64 = 6;
    /// Shut the service loop down (local, at `finish`).
    pub const SHUTDOWN: u64 = 7;
    /// CRI aggregated validate: like `DIFF_REQ`, but the entry list covers
    /// every page a compiler-described phase will fault — one round trip
    /// replaces N page-fault request/response pairs.
    pub const VALIDATE_REQ: u64 = 8;
    /// CRI direct reduction: a partial value travelling up the binomial
    /// combine tree; the service combines children and forwards.
    pub const REDUCE_PART: u64 = 9;
    /// HLRC: a writer eagerly flushes the diffs of its latest release to
    /// the modified pages' home nodes. No reply; the home buffers the
    /// ranges and folds them into its frame when the page is next served
    /// or locally needed.
    pub const HOME_FLUSH: u64 = 10;
    /// HLRC: fetch whole pages from their home. The request carries, per
    /// page, the per-writer interval watermarks the requester knows; a
    /// home that has not yet received a required flush defers the reply
    /// until it arrives.
    pub const PAGE_REQ: u64 = 11;
    /// A push handed on down a binomial tree. Not a payload word — the
    /// service knows such a push by its tag ([`super::tag::PUSH_TREE`])
    /// — but the code its service time is traced under.
    pub const PUSH_TREE: u64 = 12;
    /// Derived privatization: fetch pages private to the destination
    /// whole, as a page response (`tag::PAGE_RESP`), either protocol.
    pub const OWNER_FETCH: u64 = 13;

    /// The name a service span of opcode `code` is exported under;
    /// `"op?"` for a code no constant above names.
    pub fn label(code: u64) -> &'static str {
        match code {
            DIFF_REQ => "diff-req",
            LOCK_REQ => "lock-req",
            BARRIER_ARRIVE => "barrier-arrive",
            WORKER_ARRIVE => "worker-arrive",
            MASTER_FORK => "fork",
            MASTER_JOIN => "join",
            SHUTDOWN => "shutdown",
            VALIDATE_REQ => "validate-req",
            REDUCE_PART => "reduce-part",
            HOME_FLUSH => "home-flush",
            PAGE_REQ => "page-req",
            PUSH_TREE => "push-tree",
            OWNER_FETCH => "owner-fetch",
            _ => "op?",
        }
    }
}

/// Application-port tag bases. User-level message tags (in `mpl`) stay
/// far below these.
pub mod tag {
    /// Diff response: `DIFF_RESP | (req_id & 0xFFFF)`.
    pub const DIFF_RESP: u32 = 0x4000_0000;
    /// Lock grant: `LOCK_GRANT | lock_id`.
    pub const LOCK_GRANT: u32 = 0x4100_0000;
    /// Barrier departure: `BARRIER_DEP | (epoch & 0xFFFF)`.
    pub const BARRIER_DEP: u32 = 0x4200_0000;
    /// Fork departure (carries loop control): `FORK_DEP | (epoch & 0xFFFF)`.
    pub const FORK_DEP: u32 = 0x4300_0000;
    /// Join acknowledgement to the master: `JOIN_DEP | (epoch & 0xFFFF)`.
    pub const JOIN_DEP: u32 = 0x4400_0000;
    /// Pushed diffs.
    pub const PUSH: u32 = 0x4500_0000;
    /// Broadcast pages: `BCAST | (seq & 0xFFFF)`.
    pub const BCAST: u32 = 0x4600_0000;
    /// CRI validate response: `VALIDATE_RESP | (req_id & 0xFFFF)`.
    pub const VALIDATE_RESP: u32 = 0x4700_0000;
    /// CRI reduction total, root's service to its own application port:
    /// `REDUCE_DONE | (seq & 0xFFFF)`.
    pub const REDUCE_DONE: u32 = 0x4800_0000;
    /// CRI reduction result travelling down the tree:
    /// `REDUCE_RESULT | (seq & 0xFFFF)`.
    pub const REDUCE_RESULT: u32 = 0x4900_0000;
    /// HLRC whole-page fetch response: `PAGE_RESP | (req_id & 0xFFFF)`.
    pub const PAGE_RESP: u32 = 0x4A00_0000;
    /// CRI windowed reduction: the part of one node's window another
    /// node needs, sent straight to it: `REDUCE_SLICE | (seq & 0xFFFF)`.
    pub const REDUCE_SLICE: u32 = 0x4B00_0000;
    /// A push travelling down the binomial tree rooted at its pusher:
    /// `PUSH_TREE | root`, to a forwarder's *service* port, which passes
    /// it on to its children and up to its own application under the
    /// same tag. The payload is a `PUSH` message's, the same words on
    /// every edge.
    pub const PUSH_TREE: u32 = 0x4C00_0000;
    /// A link push ([`crate::Tmk::push_link`]): words a node just
    /// rewrote, sent outside any rendezvous to the nodes that read them
    /// next — `LINK_PUSH | pusher`, straight to a reader's application
    /// port, or down the tree rooted at the pusher as `PUSH_TREE` goes.
    /// The payload is a `PUSH` message's.
    pub const LINK_PUSH: u32 = 0x4D00_0000;
    /// The tag bits above the low 16, which carry a sequence number, an
    /// epoch or a node.
    pub const BASE: u32 = 0xFFFF_0000;
}

/// Departure flag bits.
pub mod flags {
    /// The fork is a shutdown request: workers leave their loop.
    pub const SHUTDOWN: u64 = 1;
}

/// Mode word of a `tag::PUSH` message (its first payload word): diff
/// entries only. The other modes are flags, and what each adds follows
/// the diff entries in the order of their bits.
pub const PUSH_MODE_DIFFS: u64 = 0;
/// Mode flag of a `tag::PUSH` message whose diff entries are followed by
/// whole pages ([`decode_page_resp`]).
pub const PUSH_MODE_PAGES: u64 = 1;
/// Mode flag of a `tag::PUSH` message whose diff entries are followed by
/// spans of pages ([`decode_span_entries`]): LRC's superseding pushes.
pub const PUSH_MODE_SPANS: u64 = 2;
/// Mode flag of a `tag::PUSH` message that ends in meet entries
/// ([`decode_meet_entries`]): LRC's pushes of the words a target reads.
pub const PUSH_MODE_MEETS: u64 = 4;

/// Epoch-key bit distinguishing plain barriers from fork-join epochs in
/// the manager's epoch map (both counters start at 0).
pub const BARRIER_EPOCH_BIT: u64 = 1 << 62;

/// One entry of a diff response, push or home flush: a frozen diff range
/// for a page, its diff a window onto the message it came in.
#[derive(Clone, Debug)]
pub struct DiffRespEntry {
    /// The page.
    pub page: PageId,
    /// The range.
    pub range: DiffRange,
}

/// Words [`encode_diff_entry`] produces for `range`.
pub fn diff_entry_words(range: &DiffRange) -> usize {
    4 + range.diff.encoded_words()
}

/// Encode the header of a diff-response/push/home-flush entry for the
/// range `lo..=hi` of `page` stamped `lamport`; its diff follows.
pub fn encode_diff_entry_head(w: &mut WordWriter, page: PageId, lo: u32, hi: u32, lamport: u64) {
    w.put_usize(page).put(lo as u64).put(hi as u64).put(lamport);
}

/// Encode one diff-response/push entry. A message is the entry count
/// followed by that many of these.
pub fn encode_diff_entry(w: &mut WordWriter, page: PageId, range: &DiffRange) {
    encode_diff_entry_head(w, page, range.lo, range.hi, range.lamport);
    range.diff.encode(w);
}

/// Walk the diff-response/push/home-flush entries of `msg`, which `r`
/// is reading: nothing is copied, every diff is a window onto `msg`
/// ([`Diff::window`]). The one decode path of every message that
/// carries diffs. The count is held against the words left (an entry is
/// at least five) before the walk starts.
pub fn decode_diff_entries<'r, 'a>(
    msg: &'r Landed,
    r: &'r mut WordReader<'a>,
) -> impl Iterator<Item = DiffRespEntry> + use<'r, 'a> {
    let n = r.get_count(5);
    (0..n).map(move |_| DiffRespEntry {
        page: r.get_usize(),
        range: DiffRange {
            lo: r.get() as u32,
            hi: r.get() as u32,
            lamport: r.get(),
            diff: Diff::window(msg, r),
            unpaid: false,
        },
    })
}

/// Encode one meet entry: the header of `range`, the range of `page`
/// it is cut from, then [`Diff::encode_meet`] of its diff with `keep`.
/// A push's meets are the entry count followed by that many of these.
pub fn encode_meet_entry(
    w: &mut WordWriter,
    page: PageId,
    range: &DiffRange,
    keep: &[Range<usize>],
) {
    encode_diff_entry_head(w, page, range.lo, range.hi, range.lamport);
    range.diff.encode_meet(keep, w);
}

/// Walk the meet entries of `msg`, which `r` is reading, for pages of
/// `page_words` words: each entry's meet as a diff entry, a window onto
/// `msg`, with the wire headers of its holes (`crate::hole`). The count
/// is held against the words left (an entry is at least six).
pub fn decode_meet_entries<'r, 'a>(
    msg: &'r Landed,
    r: &'r mut WordReader<'a>,
    page_words: usize,
) -> impl Iterator<Item = (DiffRespEntry, &'a [u64])> + use<'r, 'a> {
    let n = r.get_count(6);
    (0..n).map(move |_| {
        let page = r.get_usize();
        let (lo, hi, lamport) = (r.get() as u32, r.get() as u32, r.get());
        let diff = Diff::window(msg, r);
        let k = r.get_count(1);
        let holes = r.take(k);
        holes
            .iter()
            .for_each(|&h| _ = crate::hole::run_of(h, page_words));
        let range = DiffRange {
            lo,
            hi,
            lamport,
            diff,
            unpaid: false,
        };
        (DiffRespEntry { page, range }, holes)
    })
}

/// Encode a lock request.
pub fn encode_lock_req(lock: u32, requester: usize, vc: &Vc) -> Vec<u64> {
    let mut w = WordWriter::with_capacity(3 + vc.len());
    w.put(op::LOCK_REQ).put(lock as u64).put_usize(requester);
    for &x in vc {
        w.put(x as u64);
    }
    w.finish()
}

/// Decode the body of a lock request (after the opcode word).
pub fn decode_lock_req(r: &mut WordReader, n: usize) -> (u32, usize, Vc) {
    let lock = r.get() as u32;
    let requester = r.get_usize();
    (lock, requester, take_u32s(r, n))
}

/// The next `n` words as `u32`s (a vector clock, a watermark row): taken
/// from the message in one bounds-checked piece before the vector is
/// sized.
fn take_u32s(r: &mut WordReader, n: usize) -> Vec<u32> {
    r.take(n).iter().map(|&x| x as u32).collect()
}

/// The next `n` words as `f64` bit patterns, taken like [`take_u32s`].
fn take_f64s(r: &mut WordReader, n: usize) -> Vec<f64> {
    r.take(n).iter().map(|&x| f64::from_bits(x)).collect()
}

/// Encode a lock grant: the intervals the requester has not seen.
pub fn encode_lock_grant<'a>(intervals: impl Iterator<Item = &'a Interval> + Clone) -> Vec<u64> {
    let mut w = WordWriter::with_capacity(intervals_words(intervals.clone()));
    encode_intervals(&mut w, intervals);
    w.finish()
}

/// Encode a barrier/worker arrival. `push_counts` holds one count per
/// node, or nothing at all when the node pushed nothing: the wire
/// carries a zero per node either way.
pub fn encode_arrival(
    opcode: u64,
    epoch: u64,
    src: usize,
    push_counts: &[u64],
    vc: &[u32],
    intervals: &[Interval],
) -> Vec<u64> {
    debug_assert!(push_counts.is_empty() || push_counts.len() == vc.len());
    let mut w = WordWriter::with_capacity(3 + 2 * vc.len() + intervals_words(intervals.iter()));
    w.put(opcode).put(epoch).put_usize(src);
    put_push_counts(&mut w, push_counts, vc.len());
    for &x in vc {
        w.put(x as u64);
    }
    encode_intervals(&mut w, intervals.iter());
    w.finish()
}

/// Append the per-destination push counts of an arrival: the `n`
/// counts, or `n` zeros for the empty slice of a node that pushed
/// nothing (which then never builds the all-zero vector).
pub(crate) fn put_push_counts(w: &mut WordWriter, push_counts: &[u64], n: usize) {
    if push_counts.is_empty() {
        for _ in 0..n {
            w.put(0);
        }
    } else {
        w.put_raw(push_counts);
    }
}

/// An arrival, read where it landed: the manager keeps the message
/// until the epoch completes instead of copies of its parts.
#[derive(Debug)]
pub struct Arrival {
    /// Epoch number.
    pub epoch: u64,
    /// Arriving node.
    pub src: usize,
    msg: Landed,
    /// Cluster size: the length of the two rows behind the three header
    /// words of `msg`.
    n: usize,
    /// The node's new intervals.
    pub intervals: Intervals,
}

impl Arrival {
    /// Push messages this node sent, per destination.
    pub fn push_counts(&self) -> &[u64] {
        &self.msg.words()[3..3 + self.n]
    }

    /// The node's vector clock.
    pub fn vc(&self) -> impl Iterator<Item = u32> + Clone + '_ {
        let clock = &self.msg.words()[3 + self.n..3 + 2 * self.n];
        clock.iter().map(|&x| x as u32)
    }
}

/// Decode the arrival `msg`, for a cluster of `n` nodes.
pub fn decode_arrival(msg: Landed, n: usize) -> Arrival {
    let mut r = msg.reader();
    r.get(); // the opcode the service loop dispatched on
    let epoch = r.get();
    let src = r.get_usize();
    r.take(2 * n);
    let intervals = Intervals::window(&msg, &mut r);
    Arrival {
        epoch,
        src,
        msg,
        n,
        intervals,
    }
}

/// Encode a count-prefixed watermark list — the min-VC piggyback's one
/// wire form, shared by departures and the join reply.
pub fn encode_vc_words(w: &mut WordWriter, vc: &[u32]) {
    w.put_usize(vc.len());
    for &x in vc {
        w.put(x as u64);
    }
}

/// The next count-prefixed watermark list, a wire word per entry, read
/// in place.
pub fn decode_vc_words<'a>(r: &mut WordReader<'a>) -> &'a [u64] {
    let k = r.get_count(1);
    r.take(k)
}

/// Encode a departure (barrier or fork). `min_vc` is the componentwise
/// minimum of every participant's vector clock at the rendezvous — the
/// HLRC home-copy pruning piggyback (empty slice to omit).
pub fn encode_departure<'a>(
    epoch: u64,
    flag_bits: u64,
    expected_push: u64,
    ctl: &[u64],
    intervals: impl Iterator<Item = &'a Interval> + Clone,
    min_vc: &[u32],
) -> Vec<u64> {
    let words = 5 + min_vc.len() + ctl.len() + intervals_words(intervals.clone());
    let mut w = WordWriter::with_capacity(words);
    w.put(epoch).put(flag_bits).put(expected_push);
    encode_vc_words(&mut w, min_vc);
    w.put_words(ctl);
    encode_intervals(&mut w, intervals);
    w.finish()
}

/// The head of a master's fork, up to its push counts: the opcode, the
/// epoch, the flag bits and the master's vector clock as it forks. The
/// push counts per destination and the loop's control words follow.
pub fn put_fork_head(w: &mut WordWriter, epoch: u64, flag_bits: u64, clock: &[u32]) {
    w.put(op::MASTER_FORK).put(epoch).put(flag_bits);
    for &x in clock {
        w.put(x as u64);
    }
}

/// A master's fork, read where it landed, behind the opcode and the
/// epoch ([`put_fork_head`]).
pub struct Fork<'a> {
    /// Flag bits (see [`flags`]).
    pub flag_bits: u64,
    /// The master's vector clock as it forked: the departures announce
    /// none of its intervals past this — not the one its body makes
    /// while the workers are still arriving.
    pub clock: &'a [u64],
    /// The pushes that ride the dispatch, per destination.
    pub push_counts: &'a [u64],
    /// Loop-control words.
    pub ctl: &'a [u64],
}

/// Decode the fork `words` (its opcode and epoch first), for a cluster
/// of `n` nodes.
pub fn decode_fork(words: &[u64], n: usize) -> Fork<'_> {
    let mut r = WordReader::new(&words[2..]);
    Fork {
        flag_bits: r.get(),
        clock: r.take(n),
        push_counts: r.take(n),
        ctl: r.get_words(),
    }
}

/// A departure, read where it landed.
pub struct Departure<'a> {
    /// Epoch number.
    pub epoch: u64,
    /// Flag bits (see [`flags`]).
    pub flag_bits: u64,
    /// Push messages to expect before proceeding.
    pub expected_push: u64,
    /// Componentwise minimum of all participants' vector clocks at the
    /// rendezvous (HLRC home-copy pruning; empty when not piggybacked).
    pub min_vc: &'a [u64],
    /// Loop-control words (improved fork-join interface, §2.3).
    pub ctl: &'a [u64],
    /// Intervals this node has not yet seen.
    pub intervals: Intervals,
    msg: &'a Landed,
    /// Where `ctl` starts in `msg`.
    ctl_at: usize,
}

impl Departure<'_> {
    /// The loop-control words as a window that keeps the message alive.
    pub fn control(&self) -> LoopControl {
        LoopControl {
            msg: self.msg.clone(),
            words: self.ctl_at..self.ctl_at + self.ctl.len(),
        }
    }
}

/// The loop-control words of a fork departure, where they landed: a
/// window onto the message, which the worker's dispatch loop reads in
/// place (it dereferences to the words).
#[derive(Clone, Debug)]
pub struct LoopControl {
    msg: Landed,
    words: Range<usize>,
}

impl Deref for LoopControl {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.msg.words()[self.words.clone()]
    }
}

/// Decode the departure `msg`.
pub fn decode_departure(msg: &Landed) -> Departure<'_> {
    let mut r = msg.reader();
    let epoch = r.get();
    let flag_bits = r.get();
    let expected_push = r.get();
    let min_vc = decode_vc_words(&mut r);
    // Behind the control words' length prefix.
    let ctl_at = msg.offset_of(&mut r) + 1;
    let ctl = r.get_words();
    let intervals = Intervals::window(msg, &mut r);
    Departure {
        epoch,
        flag_bits,
        expected_push,
        min_vc,
        ctl,
        intervals,
        msg,
        ctl_at,
    }
}

/// Encode a direct-reduction partial travelling up the combine tree
/// (service-port message, first word is the opcode). `op_code` is the
/// combining operator's wire code (see `sp2sim::ReduceOp`).
pub fn encode_reduce_part(seq: u32, src: usize, op_code: u64, vals: &[f64]) -> Vec<u64> {
    let mut w = WordWriter::with_capacity(5 + vals.len());
    w.put(op::REDUCE_PART)
        .put(seq as u64)
        .put_usize(src)
        .put(op_code)
        .put_usize(vals.len());
    for &v in vals {
        w.put(v.to_bits());
    }
    w.finish()
}

/// Decode the body of a reduction partial (after the opcode word):
/// `(seq, src, op_code, values)`.
pub fn decode_reduce_part(r: &mut WordReader) -> (u32, usize, u64, Vec<f64>) {
    let seq = r.get() as u32;
    let src = r.get_usize();
    let op_code = r.get();
    let k = r.get_count(1);
    (seq, src, op_code, take_f64s(r, k))
}

/// Encode a reduction result (application-port message: the combined
/// total travelling down the distribution tree, or the root service's
/// upcall to its own application).
pub fn encode_reduce_vals(vals: &[f64]) -> Vec<u64> {
    let mut w = WordWriter::with_capacity(1 + vals.len());
    w.put_usize(vals.len());
    for &v in vals {
        w.put(v.to_bits());
    }
    w.finish()
}

/// Decode a reduction result.
pub fn decode_reduce_vals(r: &mut WordReader) -> Vec<f64> {
    let k = r.get_count(1);
    take_f64s(r, k)
}

/// One entry of an HLRC page response, a page push or a page broadcast,
/// read where the message landed: a page copy plus the per-writer
/// applied watermarks it reflects. The receiver installs the page with
/// one copy, from the payload into the frame.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PageRespEntry<'a> {
    /// The page.
    pub page: PageId,
    /// The applied interval watermark per writer node, a wire word each.
    applied: &'a [u64],
    /// The full page content.
    pub data: &'a [u64],
}

impl<'a> PageRespEntry<'a> {
    /// The applied interval watermark per writer node.
    pub fn applied(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.applied.iter().map(|&a| a as u32)
    }

    /// The page copy as the span of its whole page.
    pub(crate) fn span(self) -> SpanEntry<'a> {
        let (page, applied, words) = (self.page, self.applied, self.data);
        SpanEntry {
            page,
            applied,
            at: 0,
            words,
        }
    }
}

/// Words a page response of `pages` entries takes, for `n` nodes and
/// `page_words`-word pages. An HLRC home keeps each page's memoized
/// construction as the one-page response (`pages` = 1):
/// `[1, page, applied…, data…]`, sent as it is to a one-page request and
/// copied after the count (`[1..]`) into a multi-page one.
pub fn page_resp_words(pages: usize, n: usize, page_words: usize) -> usize {
    1 + pages * (1 + n + page_words)
}

/// Encode one page-response entry. A response is the entry count
/// followed by that many of these.
pub fn encode_page_entry(w: &mut WordWriter, page: PageId, applied: &[u32], data: &[u64]) {
    w.put_usize(page);
    for &a in applied {
        w.put(a as u64);
    }
    w.put_raw(data);
}

/// Encode an owner fetch of `pages` (`op::OWNER_FETCH`).
pub fn encode_owner_fetch(req_id: u32, pages: &[PageId]) -> Vec<u64> {
    let head = [op::OWNER_FETCH, req_id.into(), pages.len() as u64];
    head.into_iter()
        .chain(pages.iter().map(|&p| p as u64))
        .collect()
}

/// Decode an owner fetch behind its opcode: the request id and the
/// pages, where they landed, after the count was held against the words
/// left.
pub fn decode_owner_fetch<'a>(r: &mut WordReader<'a>) -> (u32, &'a [u64]) {
    let req_id = r.get() as u32;
    let k = r.get_count(1);
    (req_id, r.take(k))
}

/// Walk a page response (or the page section of a push, or a page
/// broadcast) for a cluster of `n` nodes with `page_words` words per
/// page. The entries borrow the payload; the count is held against the
/// words left before the walk starts.
pub fn decode_page_resp<'r, 'a>(
    r: &'r mut WordReader<'a>,
    n: usize,
    page_words: usize,
) -> impl Iterator<Item = PageRespEntry<'a>> + 'r {
    let k = r.get_count(1 + n + page_words);
    (0..k).map(move |_| PageRespEntry {
        page: r.get_usize(),
        applied: r.take(n),
        data: r.take(page_words),
    })
}

/// One entry of a superseding push, read where the message landed: the
/// words `at..at + words.len()` of a page, verbatim, and the per-writer
/// applied watermarks of the page they were taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanEntry<'a> {
    /// The page.
    pub page: PageId,
    /// The applied interval watermark per writer node, a wire word each.
    applied: &'a [u64],
    /// Where the words start in the page.
    pub at: usize,
    /// The words.
    pub words: &'a [u64],
}

impl SpanEntry<'_> {
    /// The applied interval watermark per writer node.
    pub fn applied(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.applied.iter().map(|&a| a as u32)
    }
}

/// Encode one span entry. A push's spans are the entry count followed by
/// that many of these.
pub fn encode_span_entry(
    w: &mut WordWriter,
    page: PageId,
    applied: &[u32],
    at: usize,
    words: &[u64],
) {
    w.put_usize(page);
    for &a in applied {
        w.put(a as u64);
    }
    w.put_usize(at).put_words(words);
}

/// Walk the span entries of a push for a cluster of `n` nodes with
/// `page_words`-word pages. The entries borrow the payload; the count is
/// held against the words left, and a span must lie inside its page.
pub fn decode_span_entries<'r, 'a>(
    r: &'r mut WordReader<'a>,
    n: usize,
    page_words: usize,
) -> impl Iterator<Item = SpanEntry<'a>> + 'r {
    let k = r.get_count(3 + n);
    (0..k).map(move |_| {
        let (page, applied, at) = (r.get_usize(), r.take(n), r.get_usize());
        let words = r.get_words();
        let fits = words.len() <= page_words && at <= page_words - words.len();
        assert!(fits, "span {at}+{} beyond the page", words.len());
        SpanEntry {
            page,
            applied,
            at,
            words,
        }
    })
}

/// Debug builds: the pages of every superseding push as its pusher held
/// them, by the push's buffer, for each receiver to check its own
/// words outside the spans against. The nodes of a cluster share one
/// thread, so this travels beside the simulated wire — nothing is added
/// to a message, its bytes or its time.
#[cfg(debug_assertions)]
pub(crate) mod shadow {
    use std::cell::RefCell;
    use std::sync::{Arc, Weak};

    use sp2sim::Payload;

    use crate::hole::Holes;
    use crate::page::{FrameStore, PageId};
    use crate::protocol::SpanEntry;

    type Sent = (Weak<Vec<u64>>, Vec<(PageId, Vec<u64>)>);

    thread_local! {
        static SENT: RefCell<Vec<Sent>> = const { RefCell::new(Vec::new()) };
    }

    /// Keep the `pages` of the push `payload` as `frames` hold them. A
    /// push nobody holds any more is forgotten.
    pub(crate) fn record(
        payload: &Payload,
        pages: impl Iterator<Item = PageId>,
        frames: &FrameStore,
    ) {
        let Payload::Shared(buf) = payload else {
            unreachable!("a message of diff entries is shared")
        };
        let copies = pages.map(|p| (p, frames.data(p).expect("pushed").to_vec()));
        SENT.with_borrow_mut(|sent| {
            sent.retain(|(buf, _)| buf.strong_count() > 0);
            sent.push((Arc::downgrade(buf), copies.collect()));
        });
    }

    /// Panic unless `data`, this node's frame of the span's page, holds
    /// the pusher's words outside the span — but for its `holes`, which
    /// it fetches when a view reads them. The span's words lie in the
    /// push's buffer, which is alive while they are.
    pub(crate) fn check(e: &SpanEntry, data: &[u64], holes: Option<&Holes>) {
        let at = e.words.as_ptr();
        SENT.with_borrow(|sent| {
            let holds = |b: Arc<Vec<u64>>| b.as_ptr_range().contains(&at);
            let live = |buf: &Weak<Vec<u64>>| buf.upgrade().is_some_and(holds);
            let (_, pages) = sent
                .iter()
                .find(|(buf, _)| live(buf))
                .expect("the push was recorded");
            let (_, theirs) = pages
                .iter()
                .find(|(p, _)| *p == e.page)
                .expect("a pushed page");
            let span = e.at..e.at + e.words.len();
            let held = |k: usize| holes.is_none_or(|h| h.overlapping(k..k + 1).next().is_none());
            let outside = |k: &usize| !span.contains(k) && held(*k);
            if let Some(k) = (0..data.len())
                .filter(outside)
                .find(|&k| data[k] != theirs[k])
            {
                panic!(
                    "word {k} of page {} differs from the pusher's, outside the span {span:?} \
                     a superseding push carries: the span must cover every word written since \
                     what the receiver holds",
                    e.page
                );
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_opcode_has_its_own_label() {
        let labels: Vec<_> = (1..=op::OWNER_FETCH).map(op::label).collect();
        assert!(!labels.contains(&"op?"), "{labels:?}");
        let distinct: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(distinct.len(), labels.len(), "{labels:?}");
        assert_eq!(op::label(0), "op?");
        assert_eq!(op::label(op::OWNER_FETCH + 1), "op?");
    }

    #[test]
    fn lock_req_roundtrip() {
        let buf = encode_lock_req(7, 2, &vec![1, 2, 3]);
        let mut r = WordReader::new(&buf);
        assert_eq!(r.get(), op::LOCK_REQ);
        let (lock, who, vc) = decode_lock_req(&mut r, 3);
        assert_eq!(lock, 7);
        assert_eq!(who, 2);
        assert_eq!(vc, vec![1, 2, 3]);
    }

    #[test]
    fn arrival_departure_roundtrip() {
        let ivs = [Interval::seal(1, 3, 8, &[2, 3])];
        let buf = encode_arrival(op::BARRIER_ARRIVE, 12, 1, &[0, 2], &[4, 3], &ivs);
        assert_eq!(buf[0], op::BARRIER_ARRIVE);
        let a = decode_arrival(Landed::new(buf), 2);
        assert_eq!(a.epoch, 12);
        assert_eq!(a.src, 1);
        assert_eq!(a.push_counts(), [0, 2]);
        assert_eq!(a.vc().collect::<Vec<_>>(), [4, 3]);
        assert_eq!(a.intervals.collect::<Vec<_>>(), ivs);
        // A node that pushed nothing passes no counts; the wire words are
        // those of the all-zero vector.
        assert_eq!(
            encode_arrival(op::BARRIER_ARRIVE, 12, 1, &[], &[4, 3], &ivs),
            encode_arrival(op::BARRIER_ARRIVE, 12, 1, &[0, 0], &[4, 3], &ivs)
        );

        let msg = Landed::new(encode_departure(
            12,
            flags::SHUTDOWN,
            1,
            &[9, 9],
            ivs.iter(),
            &[4, 2],
        ));
        let d = decode_departure(&msg);
        assert_eq!(d.epoch, 12);
        assert_eq!(d.flag_bits, flags::SHUTDOWN);
        assert_eq!(d.expected_push, 1);
        assert_eq!(d.min_vc, [4, 2]);
        assert_eq!(d.ctl, [9, 9]);
        let ctl = d.control();
        assert!(std::ptr::eq(&*ctl, d.ctl), "a window, not a copy");
        assert_eq!(d.intervals.collect::<Vec<_>>(), ivs);
        assert!(
            std::ptr::eq(d.ctl, &msg.words()[7..9]),
            "read where it landed"
        );
        drop(msg);
        assert_eq!(*ctl, [9, 9], "the window keeps the message");

        let msg = Landed::new(encode_departure(3, 0, 0, &[], [].iter(), &[]));
        let d = decode_departure(&msg);
        assert!(d.min_vc.is_empty());
        assert!(d.ctl.is_empty());
        assert_eq!(d.intervals.count(), 0);
    }

    #[test]
    fn reduce_part_and_vals_roundtrip() {
        let buf = encode_reduce_part(9, 3, 1, &[1.5, -2.25]);
        let mut r = WordReader::new(&buf);
        assert_eq!(r.get(), op::REDUCE_PART);
        let (seq, src, op_code, vals) = decode_reduce_part(&mut r);
        assert_eq!((seq, src, op_code), (9, 3, 1));
        assert_eq!(vals, vec![1.5, -2.25]);

        let buf = encode_reduce_vals(&[0.5]);
        let got = decode_reduce_vals(&mut WordReader::new(&buf));
        assert_eq!(got, vec![0.5]);
    }

    #[test]
    fn page_resp_roundtrip() {
        let mut w = WordWriter::with_capacity(page_resp_words(1, 3, 4));
        w.put_usize(1);
        encode_page_entry(&mut w, 3, &[0, 2, 1], &[7, 8, 9, 10]);
        let buf = w.finish();
        assert_eq!(buf, vec![1, 3, 0, 2, 1, 7, 8, 9, 10]);
        assert_eq!(buf.len(), page_resp_words(1, 3, 4));
        let mut r = WordReader::new(&buf);
        let got: Vec<PageRespEntry> = decode_page_resp(&mut r, 3, 4).collect();
        assert!(r.is_exhausted());
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].page, got[0].data), (3, &[7, 8, 9, 10][..]));
        assert_eq!(got[0].applied().collect::<Vec<_>>(), [0, 2, 1]);
        assert!(
            std::ptr::eq(got[0].data, &buf[5..]),
            "the entry is the payload's own words"
        );
    }

    #[test]
    fn span_entries_roundtrip_and_stay_inside_their_page() {
        let mut w = WordWriter::new();
        w.put_usize(2);
        encode_span_entry(&mut w, 3, &[0, 2, 1], 1, &[7, 8]);
        encode_span_entry(&mut w, 4, &[1, 1, 1], 0, &[9, 10, 11, 12]);
        let buf = w.finish();
        let mut r = WordReader::new(&buf);
        let got: Vec<SpanEntry> = decode_span_entries(&mut r, 3, 4).collect();
        assert!(r.is_exhausted());
        assert_eq!((got[0].page, got[0].at, got[0].words), (3, 1, &[7, 8][..]));
        assert_eq!(got[0].applied().collect::<Vec<_>>(), [0, 2, 1]);
        assert_eq!(
            (got[1].page, got[1].at, got[1].words),
            (4, 0, &[9, 10, 11, 12][..])
        );
        // A span reaching past its page is refused, at any offset.
        for at in [3, usize::MAX] {
            let mut w = WordWriter::new();
            w.put_usize(1);
            encode_span_entry(&mut w, 3, &[0, 0, 0], at, &[7, 8]);
            let buf = w.finish();
            let walk = || decode_span_entries(&mut WordReader::new(&buf), 3, 4).count();
            assert!(std::panic::catch_unwind(walk).is_err(), "span at {at}");
        }
    }

    #[test]
    fn diff_entries_roundtrip() {
        let diff = Diff::create(&[0, 0, 0, 0], &[1, 0, 0, 2]);
        let range = DiffRange {
            lo: 1,
            hi: 4,
            lamport: 10,
            diff: diff.clone(),
            unpaid: false,
        };
        let mut w = WordWriter::new();
        w.put(1);
        encode_diff_entry(&mut w, 7, &range);
        assert_eq!(w.len(), 1 + diff_entry_words(&range));
        let msg = Landed::new(w.finish());
        let mut r = msg.reader();
        let got: Vec<DiffRespEntry> = decode_diff_entries(&msg, &mut r).collect();
        assert!(r.is_exhausted());
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].page, 7);
        let range = &got[0].range;
        assert_eq!((range.lo, range.hi, range.lamport), (1, 4, 10));
        assert_eq!(range.diff, diff);
    }
}
