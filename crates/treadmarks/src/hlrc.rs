//! Home-based LRC: a diff lives at its page's **home**.
//!
//! Every page has a home node (block-cyclic unless overridden). A
//! release freezes the diff of every page it publishes and sends it to
//! the page's home at once; the writer keeps only that newest range. A
//! miss fetches the whole page from its home in one round trip, however
//! many writers modified it. The home buffers every published range in
//! a copy of its own ([`HomePage`]) and constructs each response at
//! exactly the requester's notice watermarks; a one-page response is
//! that construction itself, shared with the packet rather than copied.
//!
//! This module is the protocol's half of the seam in
//! [`crate::coherence`]: its hooks — `on_release`, `resolve_miss`,
//! `serve` and, of the rendezvous, `rendezvous_floor`,
//! `push_payload` and the prune ([`DsmState::prune_home_copies`]) —
//! its service handlers, its wire codecs (`HOME_FLUSH`, `PAGE_REQ`) and
//! the state only it writes: `DsmState::home` and the
//! [`PageRow::home`](crate::state::PageRow) copies.

use std::sync::Arc;

use sp2sim::{
    CostModel, EdgeKind, Endpoint, MsgKind, Payload, Port, SpanKind, StateCell, VTime, WordReader,
    WordWriter,
};

use crate::coherence::{Miss, Scratch};
use crate::diff::{DiffBatch, Landed};
use crate::dsm::Tmk;
use crate::page::PageId;
use crate::protocol::{self, op, tag, DiffRespEntry};
use crate::state::{Arrival, Carry, DiffRange, DsmState};
use crate::vc::Vc;

/// What a node keeps under HLRC beside the per-page home copies: the
/// one [`DsmState`] field (`home`) this module owns. Under LRC it stays
/// empty.
#[derive(Debug, Default)]
pub struct HomeState {
    /// The pages homed here that hold buffered ranges — the work list of
    /// [`DsmState::prune_home_copies`].
    buffered: Vec<PageId>,
    /// Page → home, empty until a home is overridden; block-cyclic
    /// (`page % n`) where no override names the page and past its end.
    /// Every node must install identical overrides, before the page's
    /// first write notice exists — see [`DsmState::set_home`].
    homes: Vec<usize>,
    /// Page requests deferred until the flushes they require arrive.
    waiting: Vec<WaitingPageReq>,
}

/// An HLRC page request the home could not yet answer: some flush it
/// needs (per the requester's watermarks) has not arrived. Retried on
/// every incoming home flush.
#[derive(Debug)]
pub struct WaitingPageReq {
    /// The request where it landed: id, requester and the requested
    /// pages with their per-writer required watermarks are read from it
    /// again at every retry.
    pub payload: Payload,
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
/// The last construction is kept as the one-page response that carries
/// it, so a page leaves its home as the home's own buffer, shared
/// copy-on-write with the packet.
#[derive(Debug, Default)]
pub struct HomePage {
    /// Buffered published diff ranges, `(writer, range)`, kept in
    /// `(lamport, writer)` order — the order constructions and the
    /// prune apply them in, so neither sorts or copies the list.
    ranges: Vec<(usize, DiffRange)>,
    /// Promoted base: the folded image of every range the rendezvous
    /// min-VC proved all nodes have passed (home-copy pruning). Every
    /// future request's watermarks are ≥ the base's, so constructions
    /// start here instead of the zero page and the folded ranges are
    /// dropped from `ranges`.
    base: Option<HomeImage>,
    /// Memoized last construction: a request with component-wise ≥
    /// watermarks extends it in place by applying only the newly covered
    /// ranges, so steady-state serving is O(new diffs) like an LRC
    /// fault, not O(history). It is laid out as the one-page response,
    /// so a one-page request is answered with the construction itself.
    cache: Option<HomeCopy>,
}

/// A page image and the per-writer watermarks it reflects: the promoted
/// base of a [`HomePage`].
#[derive(Debug)]
struct HomeImage {
    data: Vec<u64>,
    applied: Vec<u32>,
}

/// The memoized construction of a [`HomePage`], held as the one-page
/// `PAGE_RESP` that carries it: `[1, page, applied[0..n], data[0..pw]]`
/// (`protocol::page_resp_words(1, n, pw)` words, those
/// `protocol::encode_page_entry` writes after the count). A one-page
/// response is a second handle on the buffer, so the page is copied
/// once on its way from the home to the requester's frame: into the
/// frame. Extending the construction while a response still holds the
/// buffer copies it first (copy-on-write); a rebuild of a held buffer
/// starts a new one.
#[derive(Debug)]
struct HomeCopy {
    /// The watermarks the image was constructed at.
    required: Vec<u32>,
    /// The image, as the one-page response.
    resp: Arc<Vec<u64>>,
    /// Set when a flush or a prune invalidated the image: the next
    /// construction starts over from the base — into the same buffer
    /// unless a response still holds it.
    stale: bool,
}

impl HomeCopy {
    /// Words of the response before the image's watermarks: the entry
    /// count and the page.
    const HEAD: usize = 2;
}

impl HomePage {
    /// Buffer `range` of `writer` at its `(lamport, writer)` position
    /// (the end, unless flushes of concurrent writers arrive out of
    /// stamp order) and invalidate the memoized construction. Returns
    /// `true` if it is the only buffered range: the page joins the
    /// prune work list.
    fn insert(&mut self, writer: usize, range: DiffRange) -> bool {
        let key = (range.lamport, writer);
        let at = self.ranges.partition_point(|(w, r)| (r.lamport, *w) <= key);
        self.ranges.insert(at, (writer, range));
        self.invalidate();
        self.ranges.len() == 1
    }

    /// Does the copy hold interval `seq` of `writer` — folded into the
    /// base, or in a buffered range?
    fn holds(&self, writer: usize, seq: u32) -> bool {
        let in_base = self.base.as_ref().is_some_and(|b| b.applied[writer] >= seq);
        in_base || (self.ranges.iter()).any(|(w, r)| *w == writer && r.hi >= seq)
    }

    fn invalidate(&mut self) {
        if let Some(copy) = &mut self.cache {
            copy.stale = true;
        }
    }
}

/// On-release: create the interval covering all dirty pages, eagerly
/// materialize each page's diff and send it to the page's home — frozen
/// straight into one `HOME_FLUSH` per home, which the writer's newest
/// range and the home's buffered range are then two windows onto.
pub(crate) fn on_release(tmk: &Tmk<'_>) {
    let cost = tmk.node.cost();
    let me = tmk.proc_id();
    let mut scratch = tmk.scratch.borrow_mut();
    let Scratch {
        by_home, flushes, ..
    } = &mut *scratch;
    let mut us = 0.0;
    // One section from flush through home buffering. The service
    // loop ships the flushed interval cluster-wide the moment it can
    // enter the state cell (lock grants; a fork's departures stop at
    // the clock the fork carries); if it could observe the interval
    // closed but the home copy not yet holding its ranges, a requester
    // could ask this home for them in that window — and a deferred
    // request for our *own* pages has no incoming flush to retry it: it
    // would wait forever (the NBF/HLRC deadlock;
    // `ci/mutants/pr9_publish_window.patch`).
    let flush_us = {
        let mut st = tmk.state.lock();
        let (flush_us, interval) = st.flush(cost);
        // Every page of the new interval goes to its home: each one
        // has an open range reaching `seq`, frozen here.
        let flushed = interval.as_ref().map_or(&[][..], |iv| iv.pages());
        let seq = st.vc[me];
        for &p in flushed {
            by_home[st.home_of(p as PageId)].push(p as PageId);
        }
        for (home, pages) in by_home.iter_mut().enumerate() {
            if pages.is_empty() {
                continue;
            }
            let reqs = pages.iter().map(|&p| (p, seq));
            if home == me {
                // We are the home: buffer our own published ranges
                // into the home copy locally — no message. (The
                // working frame is NOT the home copy: it would leak
                // unpublished or unsynchronized content to
                // requesters; see [`HomePage`].)
                st.freeze_all(reqs, cost, false);
                for &p in pages.iter() {
                    let r = st.newest_frozen(p, seq).expect("just frozen").clone();
                    st.home_flush_in(me, p, r);
                }
            } else {
                let mut msg = DiffBatch::message();
                msg.put(op::HOME_FLUSH).put_usize(me);
                st.put_entries(&mut msg, reqs, Carry::Newest, cost, |_| {});
                st.stats.home_flush_pages += pages.len() as u64;
                flushes.push((home, st.finish_message(msg)));
            }
            pages.clear();
        }
        st.stats.home_flushes += flushes.len() as u64;
        for &p in flushed {
            let p = p as PageId;
            // The writer keeps only the range it just froze: nobody ever
            // asks it for history. Faults and validates fetch whole pages
            // from the homes, which buffer every range at the release
            // that froze it, and a push ships the newest range (plus the
            // page) — without this the list grows by a diff per page per
            // release for the whole run.
            let row = st.pages.get_mut(p).expect("a flushed page has a row");
            let frozen = &mut row.diffs.frozen;
            frozen.drain(..frozen.len() - 1);
            let newest = &frozen[0];
            debug_assert_eq!(newest.hi, seq, "frozen at this release");
            // The freezes' charges add up in page order, whatever order
            // the homes were built in — a float sum the virtual clock
            // depends on; a freeze charges for the words it found
            // changed.
            us += cost.diff_create_us(newest.diff.changed_words());
        }
        flush_us
    };
    tmk.node.advance(flush_us);
    if us == 0.0 && flushes.is_empty() {
        return;
    }
    tmk.node.advance(us);
    // Ascending home order.
    for (home, payload) in flushes.drain(..) {
        tmk.node
            .send_to_port(home, Port::Service, 0, MsgKind::HomeFlush, payload);
    }
}

/// Resolve-miss: every invalid page is fetched whole from its home —
/// one round trip per page (or per home, under aggregation), however
/// many writers modified it — and installed.
pub(crate) fn resolve_miss(tmk: &Tmk<'_>, sc: &mut Scratch, miss: &Miss<'_>) -> u64 {
    let whole = &mut sc.whole;
    let invalid = tmk.plan_miss(miss, |st| {
        whole.extend(miss.pages().filter(|&page| st.faults_on(page)));
        whole.len() as u64
    });
    if invalid > 0 {
        fetch_pages(tmk, sc, miss.aggregated);
    }
    invalid
}

/// Retrieve the pages of `sc.whole` (left empty) from their homes
/// and install them. Each request carries the requester's per-writer
/// notice watermarks; the home answers once its copy covers them
/// (deferring while a required flush is still in flight), so the
/// result is exactly as consistent as the LRC diff fetch would have
/// been.
fn fetch_pages(tmk: &Tmk<'_>, sc: &mut Scratch, aggregated: bool) {
    let Scratch {
        whole,
        by_home,
        responses,
        outstanding,
        ..
    } = sc;
    let _s = tmk.node.trace_span(SpanKind::HomeFetch, whole.len() as u32);
    let cost = tmk.node.cost();
    let pw = tmk.cfg.page_words;
    let (me, n) = (tmk.proc_id(), tmk.nprocs());
    {
        // The requests leave under the lock their watermarks are
        // read under, homes ascending.
        let st = tmk.state.lock();
        for p in whole.drain(..) {
            by_home[st.home_of(p)].push(p);
        }
        let encode = |id, pages: &[PageId]| {
            let rows = pages.iter().map(|&p| (p, st.required_watermarks(p)));
            encode_page_fetch_req(id, me, n, rows)
        };
        tmk.send_requests(by_home, aggregated, MsgKind::PageReq, outstanding, encode);
    }
    // The responses stay where they landed until every one is in;
    // each page is then copied once, from its payload into the frame.
    tmk.await_responses(outstanding, tag::PAGE_RESP, |_, pkt| responses.push(pkt));
    let mut guard = tmk.state.lock();
    let st = &mut *guard;
    let mut us = 0.0;
    for pkt in responses.drain(..) {
        let mut r = WordReader::new(&pkt.payload);
        for e in protocol::decode_page_resp(&mut r, n, pw) {
            // A write-enabled page keeps its local in-progress
            // modifications on top of the home's copy.
            us += st.install(&e.span(), cost);
            st.stats.page_fetches += 1;
            st.pages.row(e.page).prof.page_fetches += 1;
        }
    }
    drop(guard);
    tmk.charge_apply(us);
}

/// On-rendezvous, manager: the componentwise minimum of the arrivals'
/// vector clocks (and of `extra`, the clock of a master that sent no
/// arrival), for every departure to piggyback. Every interval at or
/// below the minimum has been integrated by every participant, and the
/// departure that carries the minimum also carries every interval the
/// receiver still lacked — so by the time a receiver prunes, the bound
/// is valid locally too.
pub(crate) fn rendezvous_floor(arrivals: &[Arrival], extra: Option<&Vc>, n: usize) -> Vec<u32> {
    let mut min = vec![u32::MAX; n];
    for a in arrivals {
        for (m, x) in min.iter_mut().zip(a.msg.vc()) {
            *m = (*m).min(x);
        }
    }
    if let Some(vc) = extra {
        for (m, &x) in min.iter_mut().zip(vc) {
            *m = (*m).min(x);
        }
    }
    min
}

/// On-rendezvous, pusher: the payload of a push of `pages` (each with a
/// range reaching interval `last`), each page's newest range. That range
/// alone is useless to a consumer that has not tracked the page: every
/// release eagerly flushed (and froze) a per-epoch fragment, so the
/// newest range starts far above such a consumer's watermark and its
/// writer's older notices sort before it: `dsm::apply_fetched` would
/// drop it. An HLRC push therefore also ships the **whole
/// page** at the producer's publication state plus its per-writer
/// applied watermarks — the page-grained analogue of the diff push,
/// matching the protocol's whole-page fetches — copied from the frames
/// straight into the message, in the critical section that froze them
/// (a copy the writer's newest range must not pin: a range frozen into
/// the push is sealed apart, [`DiffBatch::note_copies`]).
/// The receiver merges the diffs first (which resolves concurrent
/// multi-writer pages, where no single frame dominates) and then
/// installs the page copy only where its watermarks dominate. `charge`
/// as in [`DsmState::put_entries`].
pub(crate) fn push_payload(
    st: &mut DsmState,
    pages: &[PageId],
    last: u32,
    cost: &CostModel,
    charge: impl FnMut(f64),
) -> Payload {
    let reqs = pages.iter().map(|&p| (p, last));
    let mut msg = DiffBatch::message();
    msg.put(protocol::PUSH_MODE_PAGES);
    st.put_entries(&mut msg, reqs, Carry::Newest, cost, charge);
    msg.note_copies();
    msg.put_usize(pages.len());
    for &p in pages {
        protocol::encode_page_entry(
            &mut msg,
            p,
            st.frames.applied(p).expect("pushed page has a frame"),
            st.frames.data(p).expect("pushed page has a frame"),
        );
    }
    st.finish_message(msg)
}

/// Serve: a writer's flush or a page request (`false`: not this
/// protocol's). Both are kept where they landed — the home's buffered
/// ranges are windows onto the flush, a deferred request is read again
/// at every retry — so the payload is handed over by value.
pub(crate) fn serve(
    ep: &Endpoint,
    state: &StateCell<DsmState>,
    opcode: u64,
    payload: Payload,
    arrival: VTime,
    seq: u64,
) -> bool {
    match opcode {
        // A writer's eager flush arrives at this home. Each range is
        // buffered into the page's home copy (duplicate ranges the copy
        // already holds are dropped, never re-applied — the stale-flush
        // guard), then any deferred page request this flush completes is
        // answered.
        op::HOME_FLUSH => {
            let msg = Landed::new(payload);
            let mut r = msg.reader();
            r.get(); // the opcode the service loop dispatched on
            let (writer, entries) = decode_home_flush(&msg, &mut r);
            let mut st = state.lock();
            for e in entries {
                st.home_flush_in(writer, e.page, e.range);
            }
            serve_ready_page_reqs(ep, &mut st, arrival, seq);
        }
        // A whole-page fetch arrives at this home. If the buffered
        // ranges can construct every requested page at the requester's
        // watermarks, the full pages are returned in one response.
        // Otherwise the request is deferred until the missing flushes
        // arrive — they are always in flight, because a writer flushes
        // every interval at the release that publishes its notice, before
        // that notice can reach any requester.
        op::PAGE_REQ => {
            let mut st = state.lock();
            if !serve_page_fetch(ep, &mut st, &payload, arrival, seq) {
                st.home.waiting.push(WaitingPageReq {
                    payload,
                    arrival,
                    seq,
                });
            }
        }
        _ => return false,
    }
    true
}

/// Answer every deferred page request the current flush state can
/// satisfy. `now` is the arrival time of the flush that triggered the
/// retry: a deferred response cannot leave before the data it waited
/// for has arrived. A response that waited is causally anchored on the
/// flush (`flush_seq`) that unblocked it, not on its own request.
fn serve_ready_page_reqs(ep: &Endpoint, st: &mut DsmState, now: VTime, flush_seq: u64) {
    // One pass in list order: serving a request changes no page's
    // coverage, so none becomes ready behind the cursor.
    let mut waiting = std::mem::take(&mut st.home.waiting);
    waiting.retain(|wr| {
        let (at, cause) = if wr.arrival > now {
            (wr.arrival, wr.seq)
        } else {
            (now, flush_seq)
        };
        !serve_page_fetch(ep, st, &wr.payload, at, cause)
    });
    debug_assert!(st.home.waiting.is_empty());
    st.home.waiting = waiting;
}

/// Answer the page request `payload`, its rows read where they landed,
/// if the buffered ranges cover every row (`false`: not yet — the caller
/// keeps the request): construct every requested page at exactly the
/// requester's watermarks (see [`DsmState::home_serve`]) and reply with
/// the full pages ([`page_resp`]).
fn serve_page_fetch(
    ep: &Endpoint,
    st: &mut DsmState,
    payload: &[u64],
    arrival: VTime,
    cause_seq: u64,
) -> bool {
    let mut r = WordReader::new(payload);
    r.get(); // the opcode the service loop dispatched on
    let (req_id, requester, rows) = decode_page_fetch_req(&mut r, st.n);
    if !(rows.clone()).all(|(page, required)| st.home_covers(page, required)) {
        return false;
    }
    let cost = ep.cost();
    let (resp, us) = page_resp(st, rows, cost);
    let out_seq = ep.send_at(
        requester,
        Port::App,
        tag::PAGE_RESP | (req_id & 0xFFFF),
        MsgKind::PageResp,
        resp,
        arrival + cost.service_us + us,
    );
    ep.trace_edge(EdgeKind::Response, out_seq, cause_seq, arrival);
    true
}

/// The `PAGE_RESP` answering the request rows `rows` (`(page, required
/// watermarks)`, each covered by the buffered ranges), and the time its
/// construction delays the reply. A one-page reply is the page's
/// construction itself, a second handle on the home's buffer; a
/// multi-page reply (aggregated, or a validate) copies each
/// construction's entry into one buffer after the count. Construction
/// of a multi-page response is pipelined with transmission like an
/// aggregated diff response: only the costliest page's construction
/// delays the reply.
fn page_resp<'a>(
    st: &mut DsmState,
    mut rows: impl ExactSizeIterator<Item = (PageId, &'a [u64])>,
    cost: &CostModel,
) -> (Payload, f64) {
    if rows.len() == 1 {
        let (page, required) = rows.next().expect("one row");
        let (resp, us) = st.home_serve(page, required, cost);
        return (Payload::Shared(Arc::clone(resp)), us);
    }
    let words = protocol::page_resp_words(rows.len(), st.n, st.cfg.page_words);
    let mut w = WordWriter::with_capacity(words);
    w.put_usize(rows.len());
    let mut first_us: f64 = 0.0;
    for (page, required) in rows {
        let (resp, us) = st.home_serve(page, required, cost);
        w.put_raw(&resp[1..]);
        first_us = first_us.max(us);
    }
    (w.finish().into(), first_us)
}

impl DsmState {
    /// The home node of `page`: block-cyclic by default, overridden by
    /// [`DsmState::set_home`].
    pub fn home_of(&self, page: PageId) -> usize {
        self.home.homes.get(page).copied().unwrap_or(page % self.n)
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
        if self.notices.is_named(page) {
            return false;
        }
        self.install_homes(&[(page, home)]);
        true
    }

    /// Install home overrides unguarded (see [`Tmk::install_page_homes`]).
    pub(crate) fn install_homes(&mut self, homes: &[(PageId, usize)]) {
        let (table, n) = (&mut self.home.homes, self.n);
        for &(page, home) in homes {
            debug_assert!(home < n);
            if page >= table.len() {
                table.extend((table.len()..=page).map(|p| p % n));
            }
            table[page] = home;
        }
    }

    /// The requester-side watermark vector for a page request: the
    /// highest interval sequence number this node has a write notice for,
    /// per writer. The home must have applied at least these before its
    /// copy is consistent for us. One per node, for the request encoder
    /// to write straight into the payload.
    pub fn required_watermarks(&self, page: PageId) -> impl Iterator<Item = u32> + '_ {
        let latest = self.notices.latest(page);
        (0..self.n).map(move |w| latest.map_or(0, |row| row[w]))
    }

    /// Home-side: buffer one published diff range from `writer` — a
    /// remote `HOME_FLUSH`, or our own release-frozen diff, the local leg
    /// of the eager flush (no message: our frame is the working copy,
    /// but the home copy still needs the published range to serve
    /// others). A range the home copy already
    /// holds — a duplicate delivery — is dropped and counted, the
    /// stale-flush guard: re-applying it during a later construction
    /// would overwrite newer words with old values. Returns `true` if
    /// the range was buffered.
    pub fn home_flush_in(&mut self, writer: usize, page: PageId, range: DiffRange) -> bool {
        let hp = self.pages.row(page).home.get_or_insert_with(Box::default);
        if hp.holds(writer, range.hi) {
            self.stats.stale_flush_drops += 1;
            return false;
        }
        if hp.insert(writer, range) {
            self.home.buffered.push(page);
        }
        true
    }

    /// Home-side: can a copy of `page` satisfying `required` be
    /// constructed from the buffered ranges? When it cannot, the missing
    /// flush is still in flight (writers flush every interval at the
    /// release that publishes its notice, before the notice can reach
    /// any requester) and the request must wait.
    pub fn home_covers(&self, page: PageId, required: &[u64]) -> bool {
        let hp = self.pages.get(page).and_then(|r| r.home.as_deref());
        (required.iter().enumerate())
            .all(|(w, &need)| need == 0 || hp.is_some_and(|hp| hp.holds(w, need as u32)))
    }

    /// Home-side: construct the copy of `page` at exactly the `required`
    /// watermarks (a wire word each, as the request carries them) — the
    /// zero base plus every buffered range with
    /// `hi <= required[w]`, applied in `(lamport, writer)` order (a
    /// linear extension of happens-before, the same order the LRC fault
    /// path applies diffs). Returns `(response, time to charge)`: the
    /// memoized construction, which is the page's one-page `PAGE_RESP`
    /// (`[1, page, applied…, data…]`, see [`HomePage`]'s `cache`).
    /// Monotonically growing watermarks (the common case: every consumer
    /// of an epoch, then the next epoch) extend that construction in
    /// place instead of replaying history — after copying it, if a
    /// response sent earlier still holds it.
    pub fn home_serve(
        &mut self,
        page: PageId,
        required: &[u64],
        cost: &CostModel,
    ) -> (&Arc<Vec<u64>>, f64) {
        let pw = self.cfg.page_words;
        let n = self.n;
        let HomePage {
            ranges,
            base,
            cache,
        } = &mut **self.pages.row(page).home.get_or_insert_with(Box::default);
        let required = |w: usize| required[w] as u32;
        let fresh = cache
            .as_ref()
            .is_none_or(|c| c.stale || (0..n).any(|w| c.required[w] > required(w)));
        if fresh {
            // Fresh construction: start from the promoted base (every
            // requester's watermarks are ≥ the base's — see
            // `prune_home_copies`), or the zero page before any prune:
            // in the buffer a response no longer holds, else in a new
            // one (the held words are all overwritten: copying them
            // first would be wasted).
            let copy = match cache {
                Some(c) if Arc::strong_count(&c.resp) == 1 => c,
                _ => cache.insert(HomeCopy {
                    required: vec![0; n],
                    resp: Arc::new(Vec::with_capacity(protocol::page_resp_words(1, n, pw))),
                    stale: false,
                }),
            };
            let words = Arc::get_mut(&mut copy.resp).expect("held by the home alone");
            words.clear();
            words.extend([1, page as u64]);
            match base {
                Some(base) => {
                    words.extend(base.applied.iter().map(|&a| u64::from(a)));
                    words.extend_from_slice(&base.data);
                }
                None => words.resize(protocol::page_resp_words(1, n, pw), 0),
            }
            for (f, &a) in copy.required.iter_mut().zip(&words[HomeCopy::HEAD..]) {
                *f = a as u32;
            }
            copy.stale = false;
        }
        // `floor` is what the image already holds.
        let HomeCopy {
            required: floor,
            resp,
            ..
        } = cache.as_mut().expect("constructed above");
        let mut us = 0.0;
        let mut todo = (ranges.iter())
            .filter(|(w, r)| r.hi > floor[*w] && r.hi <= required(*w))
            .peekable();
        if todo.peek().is_some() {
            // Copy-on-write: a response still holding the buffer keeps
            // the words it was sent with.
            let (applied, data) = Arc::make_mut(resp)[HomeCopy::HEAD..].split_at_mut(n);
            for (w, r) in todo {
                r.diff.apply(data);
                applied[*w] = applied[*w].max(u64::from(r.hi));
                us += cost.diff_apply_us(r.diff.encoded_words());
            }
        }
        for (w, f) in floor.iter_mut().enumerate() {
            *f = required(w);
        }
        (resp, us)
    }

    /// Home-copy pruning: fold every buffered range all nodes have
    /// provably passed into the promoted base and drop it.
    ///
    /// `min_vc` is the componentwise minimum of every participant's
    /// vector clock at a rendezvous (piggybacked on the departure, read
    /// in place: a wire word per node). A
    /// range `(w, r)` with `r.hi <= min_vc[w]` is foldable: every node
    /// has integrated interval `r.hi` of `w`, and since that interval
    /// named this page, every node holds its write notice — so every
    /// future request's `required[w]` is at least `r.hi`, and no
    /// construction will ever need to start below the folded image.
    /// Deferred requests cannot be outstanding at a rendezvous (their
    /// requesters would still be blocked, and the rendezvous would not
    /// have completed), so folding is safe. The fold happens in place:
    /// `retain` visits the ranges in their stored `(lamport, writer)`
    /// order and applies each one it drops straight onto the base.
    /// Only the pages on the work list — those with buffered ranges —
    /// are visited; a page leaves the list when its last range folds.
    /// Returns ranges dropped.
    pub fn prune_home_copies(&mut self, min_vc: &[u64]) -> u64 {
        let min_vc = |w: usize| min_vc[w] as u32;
        let pw = self.cfg.page_words;
        let n = self.n;
        let mut dropped = 0;
        let pages = &mut self.pages;
        self.home.buffered.retain(|&page| {
            let hp = pages
                .get_mut(page)
                .and_then(|row| row.home.as_deref_mut())
                .expect("a page on the prune work list has a home copy");
            if hp.ranges.iter().all(|(w, r)| r.hi > min_vc(*w)) {
                return true;
            }
            let base = hp.base.get_or_insert_with(|| HomeImage {
                data: vec![0; pw],
                applied: vec![0; n],
            });
            let before = hp.ranges.len();
            hp.ranges.retain(|(w, r)| {
                if r.hi > min_vc(*w) {
                    return true;
                }
                r.diff.apply(&mut base.data);
                if r.hi > base.applied[*w] {
                    base.applied[*w] = r.hi;
                }
                false
            });
            dropped += (before - hp.ranges.len()) as u64;
            // The memoized construction may now sit below the base
            // floor; drop it rather than reason about mixed floors.
            hp.invalidate();
            !hp.ranges.is_empty()
        });
        self.stats.home_ranges_pruned += dropped;
        dropped
    }
}

/// Walk the body of the home flush `msg` (`r` stands after its opcode
/// word): `(writer, entries)`, the entries' diffs windows onto `msg` —
/// what the home keeps of a flush is the message itself. A flush is
/// `[HOME_FLUSH, writer]` and the count-prefixed entries of diff
/// responses and pushes, written by `on_release` as it freezes them.
pub fn decode_home_flush<'r, 'a>(
    msg: &'r Landed,
    r: &'r mut WordReader<'a>,
) -> (usize, impl Iterator<Item = DiffRespEntry> + use<'r, 'a>) {
    let writer = r.get_usize();
    (writer, protocol::decode_diff_entries(msg, r))
}

/// Encode an HLRC page request for a cluster of `n` nodes: one row
/// `(page, required…)` per page, which is consistent at its home once
/// the home has applied interval `required[w]` of every writer `w` (the
/// requester's per-writer notice watermarks, written straight from where
/// the requester keeps them).
pub fn encode_page_fetch_req<R: Iterator<Item = u32>>(
    req_id: u32,
    requester: usize,
    n: usize,
    rows: impl ExactSizeIterator<Item = (PageId, R)>,
) -> Vec<u64> {
    let mut w = WordWriter::with_capacity(4 + rows.len() * (1 + n));
    w.put(op::PAGE_REQ)
        .put(req_id as u64)
        .put_usize(requester)
        .put_usize(rows.len());
    for (page, required) in rows {
        w.put_usize(page);
        for s in required {
            w.put(s as u64);
        }
    }
    w.finish()
}

/// Decode the body of a page request (after the opcode word), for a
/// cluster of `n` nodes: `(req_id, requester, rows)`, the rows `(page,
/// required watermark per writer node, a wire word each)` read where
/// they landed — the home walks them once to check and once to serve
/// (and again at every retry of a deferred request), so the iterator is
/// `Clone`.
pub fn decode_page_fetch_req<'a>(
    r: &mut WordReader<'a>,
    n: usize,
) -> (
    u32,
    usize,
    impl ExactSizeIterator<Item = (PageId, &'a [u64])> + Clone,
) {
    let req_id = r.get() as u32;
    let requester = r.get_usize();
    let k = r.get_count(1 + n);
    let rows = r.take(k * (1 + n)).chunks_exact(1 + n);
    (
        req_id,
        requester,
        rows.map(|row| (row[0] as usize, &row[1..])),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::Diff;
    use crate::dsm::tests::run_cfg;
    use crate::interval::Interval;
    use crate::{DsmStats, Pushes, TmkConfig};
    use sp2sim::{Cluster, ClusterConfig};

    fn state(me: usize, n: usize) -> DsmState {
        DsmState::new(me, n, TmkConfig::hlrc())
    }

    /// `home_serve` of `page` at `required`: the construction's page,
    /// watermarks and time, read out of the one-page response it is.
    fn served(s: &mut DsmState, page: PageId, required: &[u64]) -> (Vec<u64>, Vec<u32>, f64) {
        let (n, pw) = (s.n, s.cfg.page_words);
        let (resp, us) = s.home_serve(page, required, &CostModel::sp2());
        let mut r = WordReader::new(resp);
        let entries: Vec<_> = protocol::decode_page_resp(&mut r, n, pw).collect();
        assert!(r.is_exhausted(), "one page, nothing after it");
        let [e] = &entries[..] else {
            panic!("{} entries in a one-page response", entries.len())
        };
        assert_eq!(e.page, page);
        (e.data.to_vec(), e.applied().collect(), us)
    }

    /// The one-interval range `hi..=hi`.
    fn range(hi: u32, lamport: u64, diff: Diff) -> DiffRange {
        let lo = hi;
        DiffRange {
            lo,
            hi,
            lamport,
            diff,
            unpaid: false,
        }
    }

    #[test]
    fn prune_visits_only_pages_with_buffered_ranges() {
        let mut s = state(0, 2);
        let range = |hi, lamport| range(hi, lamport, Diff::create(&[0], &[lamport]));
        assert!(s.home_flush_in(1, 6, range(1, 1)));
        assert!(s.home_flush_in(1, 6, range(2, 2)));
        assert!(s.home_flush_in(0, 2, range(1, 3)));
        assert_eq!(s.home.buffered, [6, 2], "listed once, when first buffered");
        assert_eq!(s.prune_home_copies(&[0, 1]), 1);
        assert_eq!(s.home.buffered, [6, 2], "both still hold a range");
        assert_eq!(s.prune_home_copies(&[1, 2]), 2);
        assert!(s.home.buffered.is_empty(), "folded pages leave the list");
        assert_eq!(s.prune_home_copies(&[9, 9]), 0);
        // Buffering again re-lists the page; the base survived.
        assert!(s.home_flush_in(1, 6, range(3, 4)));
        assert_eq!(s.home.buffered, [6]);
        let (data, applied, _) = served(&mut s, 6, &[0, 3]);
        assert_eq!((data[0], &applied[..]), (4, &[0, 3][..]));
        assert_eq!(s.stats.home_ranges_pruned, 3);
    }

    #[test]
    fn prune_folds_in_lamport_order_whatever_the_arrival_order() {
        let mut s = state(0, 3);
        // Writer 2 (lamport 5) overwrites writer 1's word (lamport 3);
        // its flush arrives first.
        s.home_flush_in(2, 0, range(1, 5, Diff::create(&[7, 7], &[9, 7])));
        s.home_flush_in(1, 0, range(1, 3, Diff::create(&[0, 0], &[7, 7])));
        assert_eq!(s.prune_home_copies(&[0, 1, 1]), 2);
        assert_eq!(s.stats.home_ranges_pruned, 2);
        let (data, applied, us) = served(&mut s, 0, &[0, 1, 1]);
        assert_eq!((data[0], data[1]), (9, 7), "later stamp wins");
        assert_eq!(applied, [0, 1, 1]);
        assert_eq!(us, 0.0, "served from the base, nothing to apply");
    }

    #[test]
    fn home_default_is_block_cyclic_and_override_guarded() {
        let mut s = state(0, 4);
        assert_eq!(s.home_of(0), 0);
        assert_eq!(s.home_of(5), 1);
        assert_eq!(s.home_of(7), 3);
        assert!(s.set_home(7, 2), "no notices yet: override accepted");
        assert_eq!(s.home_of(7), 2);
        // Node 0 is a home like any other, not an "unset" mark.
        assert!(s.set_home(6, 0));
        assert_eq!(s.home_of(6), 0);
        // Pages below the table's end that no override names, and pages
        // past it, stay block-cyclic.
        assert_eq!((s.home_of(5), s.home_of(4)), (1, 0));
        assert_eq!((s.home_of(9), s.home_of(102)), (1, 2));
        // Once a notice names the page, rehoming is refused, and an
        // earlier override stands.
        let notice = Interval::seal(1, 1, 1, &[5, 7]);
        s.integrate_interval(notice, &CostModel::sp2());
        assert!(!s.set_home(5, 0));
        assert_eq!(s.home_of(5), 1);
        assert!(!s.set_home(7, 3));
        assert_eq!(s.home_of(7), 2);
        // Overrides decided elsewhere install past the guard.
        s.install_homes(&[(5, 0), (11, 2)]);
        assert_eq!((s.home_of(5), s.home_of(11), s.home_of(10)), (0, 2, 2));
    }

    #[test]
    fn required_watermarks_track_notices() {
        let mut s = state(0, 3);
        let watermarks = |s: &DsmState| s.required_watermarks(4).collect::<Vec<u32>>();
        assert_eq!(watermarks(&s), [0, 0, 0]);
        for seq in 1..=2 {
            s.integrate_interval(Interval::seal(2, seq, seq as u64, &[4]), &CostModel::sp2());
        }
        assert_eq!(watermarks(&s), [0, 0, 2]);
    }

    #[test]
    fn home_serve_constructs_at_watermarks_in_lamport_order() {
        let mut s = state(0, 3);
        // Writer 2's interval (lamport 5) causally follows writer 1's
        // (lamport 3) and overwrites its word; the home buffers them out
        // of order.
        let d1 = Diff::create(&[0, 0], &[7, 7]); // writer 1 writes both
        let d2 = Diff::create(&[7, 7], &[9, 7]); // writer 2 overwrites [0]
        s.home_flush_in(2, 0, range(1, 5, d2));
        s.home_flush_in(1, 0, range(1, 3, d1.clone()));
        assert!(s.home_covers(0, &[0, 1, 1]));
        assert!(!s.home_covers(0, &[0, 2, 1]), "writer 1 seq 2 not flushed");
        let (data, applied, us) = served(&mut s, 0, &[0, 1, 1]);
        assert!(us > 0.0);
        // Lamport order: writer 1 first, then writer 2's overwrite wins.
        assert_eq!((data[0], data[1]), (9, 7));
        assert_eq!(applied, [0, 1, 1]);
        // Memoized: identical watermarks replay nothing.
        let (again, _, us2) = served(&mut s, 0, &[0, 1, 1]);
        assert_eq!(again[0], 9);
        assert_eq!(us2, 0.0);
        // A requester that has not synchronized with writer 2 must not
        // see its interval — the construction is exact, never ahead.
        let (old, old_applied, _) = served(&mut s, 0, &[0, 1, 0]);
        assert_eq!(old[0], 7, "unsynchronized interval stays invisible");
        assert_eq!(old_applied, [0, 1, 0]);
        // A duplicate flush is dropped at arrival — the stale-flush
        // guard (re-applying it during a later construction would
        // resurrect 7 over 9).
        assert!(!s.home_flush_in(1, 0, range(1, 3, d1)));
        assert_eq!(s.stats.stale_flush_drops, 1);
        let (data, _, _) = served(&mut s, 0, &[0, 1, 1]);
        assert_eq!(data[0], 9, "stale flush must not re-apply");
    }

    /// A page request's rows, `(page, required)`, as the home reads them.
    fn rows<'a>(
        rows: &'a [(PageId, &'a [u64])],
    ) -> impl ExactSizeIterator<Item = (PageId, &'a [u64])> + 'a {
        rows.iter().copied()
    }

    #[test]
    fn one_page_response_is_the_home_construction() {
        let mut s = state(0, 2);
        let cost = CostModel::sp2();
        s.home_flush_in(1, 4, range(1, 1, Diff::create(&[0, 0], &[5, 6])));
        let (sent, us) = page_resp(&mut s, rows(&[(4, &[0, 1])]), &cost);
        assert!(us > 0.0);
        let Payload::Shared(sent) = sent else {
            panic!("a one-page response shares the construction")
        };
        let (resp, _) = s.home_serve(4, &[0, 1], &cost);
        assert!(Arc::ptr_eq(&sent, resp), "the response is the construction");
        assert_eq!(sent[..4], [1, 4, 0, 1]);
        assert_eq!(sent[4..6], [5, 6]);
        // The same watermarks again: nothing to apply, the same buffer.
        let (again, us) = page_resp(&mut s, rows(&[(4, &[0, 1])]), &cost);
        assert_eq!(us, 0.0);
        assert!(
            Arc::ptr_eq(&sent, &again.into_shared()),
            "sent twice, built once"
        );
    }

    #[test]
    fn a_held_response_keeps_the_words_it_was_sent_with() {
        let mut s = state(0, 2);
        let cost = CostModel::sp2();
        s.home_flush_in(1, 4, range(1, 1, Diff::create(&[0, 0], &[5, 6])));
        s.home_flush_in(1, 4, range(2, 2, Diff::create(&[5, 6], &[7, 6])));
        let (first, _) = page_resp(&mut s, rows(&[(4, &[0, 1])]), &cost);
        let words = first.to_vec();
        // A later request at higher watermarks extends the construction:
        // into a copy, the held buffer untouched.
        let (data, applied, _) = served(&mut s, 4, &[0, 2]);
        assert_eq!((data[0], &applied[..]), (7, &[0, 2][..]));
        assert_eq!(first[..], words[..], "extension is copy-on-write");
        let (second, _) = page_resp(&mut s, rows(&[(4, &[0, 2])]), &cost);
        assert_ne!(first.as_ptr(), second.as_ptr(), "two buffers");
        // A flush invalidates the construction; the rebuild starts a new
        // buffer while the second response still holds the old one.
        let words2 = second.to_vec();
        s.home_flush_in(0, 4, range(1, 3, Diff::create(&[7, 6], &[7, 8])));
        let (data, applied, _) = served(&mut s, 4, &[1, 2]);
        assert_eq!((&data[..2], &applied[..]), (&[7, 8][..], &[1, 2][..]));
        assert_eq!(
            second[..],
            words2[..],
            "a rebuild leaves the held buffer be"
        );
        assert_eq!(first[..], words[..]);
        // Nobody holds the newest construction: a rebuild reuses it.
        drop((first, second));
        let (resp, _) = s.home_serve(4, &[1, 2], &cost);
        let at = Arc::as_ptr(resp);
        s.home_flush_in(1, 4, range(3, 4, Diff::create(&[7, 8], &[9, 8])));
        let (resp, _) = s.home_serve(4, &[1, 3], &cost);
        assert_eq!(Arc::as_ptr(resp), at, "rebuilt in place");
        assert_eq!(resp[4..6], [9, 8]);
    }

    #[test]
    fn aggregated_response_concatenates_the_one_page_entries() {
        let mut s = state(0, 3);
        let cost = CostModel::sp2();
        s.home_flush_in(1, 3, range(1, 1, Diff::create(&[0, 0], &[5, 6])));
        s.home_flush_in(2, 9, range(1, 2, Diff::create(&[0, 0, 0], &[0, 0, 4])));
        let (both, _) = page_resp(&mut s, rows(&[(3, &[0, 1, 0]), (9, &[0, 0, 1])]), &cost);
        let mut want = vec![2];
        for (page, required) in [(3, &[0, 1, 0]), (9, &[0, 0, 1])] {
            let (resp, _) = s.home_serve(page, required, &cost);
            want.extend_from_slice(&resp[1..]);
        }
        assert_eq!(both[..], want[..]);
        let (pw, n) = (s.cfg.page_words, s.n);
        assert_eq!(both.len(), protocol::page_resp_words(2, n, pw));
    }

    #[test]
    fn home_flush_roundtrip() {
        let diff = Diff::create(&[0, 0, 0, 0], &[0, 5, 5, 0]);
        let range = DiffRange {
            lo: 2,
            hi: 3,
            lamport: 9,
            diff: diff.clone(),
            unpaid: false,
        };
        let mut w = WordWriter::new();
        w.put(op::HOME_FLUSH).put_usize(4).put(1);
        protocol::encode_diff_entry(&mut w, 11, &range);
        let msg = Landed::new(w.finish());
        let mut r = msg.reader();
        assert_eq!(r.get(), op::HOME_FLUSH);
        let (writer, entries) = decode_home_flush(&msg, &mut r);
        let entries: Vec<DiffRespEntry> = entries.collect();
        assert!(r.is_exhausted());
        assert_eq!(writer, 4);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].page, 11);
        let range = &entries[0].range;
        assert_eq!((range.lo, range.hi, range.lamport), (2, 3, 9));
        assert_eq!(range.diff, diff);
    }

    /// A flushed diff is written once: the writer's newest range and the
    /// home's buffered range are two windows onto the `HOME_FLUSH` that
    /// carried it.
    #[test]
    fn writer_and_home_keep_windows_onto_one_flush() {
        let out = run_cfg(2, TmkConfig::hlrc(), |tmk| {
            let a = tmk.malloc_f64(1024); // two pages, one homed at each node
            let page = (a.first_page..a.first_page + 2)
                .find(|&p| tmk.page_home(p) == 0)
                .expect("block-cyclic homes");
            if tmk.proc_id() == 1 {
                let mut w = tmk.write(a, 0..1024);
                w[3] = 7.0;
                w[600] = 8.0;
            }
            tmk.barrier(0);
            let kept = {
                let st = tmk.state.lock();
                let row = st.pages.get(page).expect("written or homed here");
                match tmk.proc_id() {
                    0 => row.home.as_ref().map(|hp| hp.ranges[0].1.diff.clone()),
                    _ => row.diffs.frozen.last().map(|r| r.diff.clone()),
                }
            };
            tmk.finish();
            kept.expect("a range of the flushed page")
        });
        let [home, writer] = &out.results[..] else {
            unreachable!()
        };
        assert_eq!(home, writer);
        assert!(home.shares_buffer_with(writer), "one message, two windows");
    }

    #[test]
    fn page_req_roundtrip() {
        let rows = [(3usize, [0u32, 2, 1]), (9, [1, 0, 0])];
        let buf =
            encode_page_fetch_req(17, 2, 3, rows.iter().map(|(p, r)| (*p, r.iter().copied())));
        assert_eq!(buf.len(), 4 + 2 * (1 + 3));
        let mut r = WordReader::new(&buf);
        assert_eq!(r.get(), op::PAGE_REQ);
        let (id, who, got) = decode_page_fetch_req(&mut r, 3);
        assert!(r.is_exhausted());
        assert_eq!((id, who, got.len()), (17, 2, 2));
        let want = vec![(3, &[0u64, 2, 1][..]), (9, &[1, 0, 0][..])];
        assert_eq!(got.clone().collect::<Vec<_>>(), want);
        let again: Vec<_> = got.collect();
        assert_eq!(again, want, "walked twice");
        assert!(
            std::ptr::eq(again[1].1, &buf[9..]),
            "a row is the payload's own words"
        );
    }

    #[test]
    fn home_copies_prune_at_barriers() {
        // Node 1 writes the same page every epoch; the page's home
        // buffers one range per epoch. The min-VC piggyback on each
        // barrier departure folds fully-passed ranges into the promoted
        // base, so the buffered history stays bounded and reads still
        // see the latest values.
        let rounds = 6u32;
        let out = run_cfg(3, TmkConfig::hlrc(), move |tmk| {
            let a = tmk.malloc_f64(64);
            for r in 0..rounds {
                if tmk.proc_id() == 1 {
                    let mut w = tmk.write(a, 0..8);
                    for i in 0..8 {
                        w[i] = (r * 10 + i as u32) as f64;
                    }
                }
                tmk.barrier(r);
                let v = tmk.read_one(a, 3);
                assert_eq!(v, (r * 10 + 3) as f64, "round {r}");
            }
            let pruned = tmk.stats_snapshot().home_ranges_pruned;
            tmk.finish();
            pruned
        });
        // The page's home pruned ranges as barriers certified them.
        let total: u64 = out.results.iter().sum();
        assert!(total >= rounds as u64 - 2, "pruned {total} ranges");
    }

    #[test]
    fn writer_keeps_one_frozen_range_and_its_pushes_still_deliver() {
        // Node 0 rewrites two pages every round and pushes them to node
        // 2. Each release freezes a range per page (the home flush);
        // under HLRC only the newest is kept — nobody asks an HLRC
        // writer for history — and the push, which ships that newest
        // range plus the page, keeps node 2's reads fault-free for all
        // 200 rounds. Under LRC the same program keeps every range.
        let rounds = 200u32;
        let body = move |tmk: &Tmk| {
            let a = tmk.malloc_f64(1024);
            let (mut ok, mut faults) = (true, 0);
            for r in 0..rounds {
                if tmk.proc_id() == 0 {
                    let mut w = tmk.write(a, 0..1024);
                    w[3] = f64::from(r);
                    w[700] = f64::from(r) + 0.5;
                    drop(w);
                    tmk.push_at_next_sync(Pushes::default().whole(2, tmk.page_span(a, &(0..1024))));
                }
                tmk.barrier(r);
                if tmk.proc_id() == 2 {
                    let before = tmk.stats_snapshot().faults;
                    ok &= tmk.read_one(a, 3) == f64::from(r);
                    ok &= tmk.read_one(a, 700) == f64::from(r) + 0.5;
                    faults += tmk.stats_snapshot().faults - before;
                }
            }
            let frozen: Vec<usize> = {
                let st = tmk.state.lock();
                tmk.page_span(a, &(0..1024))
                    .map(|p| st.pages.get(p).map_or(0, |row| row.diffs.frozen.len()))
                    .collect()
            };
            tmk.finish();
            (ok, faults, frozen)
        };
        let hlrc = run_cfg(3, TmkConfig::hlrc(), body);
        assert_eq!(hlrc.results[0].2, vec![1, 1], "newest range only");
        let lrc = run_cfg(3, TmkConfig::default(), body);
        assert_eq!(
            lrc.results[0].2,
            vec![rounds as usize; 2],
            "LRC keeps history"
        );
        for out in [&hlrc, &lrc] {
            let (ok, faults, _) = &out.results[2];
            assert!(ok, "every round's values arrived");
            assert_eq!(*faults, 0, "the pushes made every read local");
            assert_eq!(out.stats.messages(MsgKind::Push), u64::from(rounds));
        }
    }

    #[test]
    fn single_writer_propagates_via_home() {
        let out = run_cfg(3, TmkConfig::hlrc(), |tmk| {
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
            let stats = tmk.finish();
            (v, stats)
        });
        for (res, _) in &out.results {
            assert_eq!(res, &(10..20).map(|i| (i * 2) as f64).collect::<Vec<_>>());
        }
        // Page 0 of the array is homed at node 0 (block-cyclic): the
        // writer (node 1) flushed its diff there, and the readers fetched
        // the whole page from the home instead of diffing with the writer.
        assert!(out.stats.messages(MsgKind::HomeFlush) >= 1);
        assert!(out.stats.messages(MsgKind::PageReq) >= 1);
        assert_eq!(
            out.stats.messages(MsgKind::PageReq),
            out.stats.messages(MsgKind::PageResp)
        );
        assert_eq!(out.stats.messages(MsgKind::DiffReq), 0);
        let dsm = DsmStats::total(out.results.iter().map(|(_, s)| s));
        assert!(dsm.home_flush_pages >= 1);
        assert!(dsm.page_fetches >= 1);
    }

    #[test]
    fn multi_writer_page_takes_one_round_trip() {
        // Four nodes write disjoint quarters of one page. Under LRC a
        // fifth-party reader pays one diff round trip per writer; under
        // HLRC the merged page comes from the home in a single round trip.
        let body = |tmk: &Tmk| {
            let a = tmk.malloc_f64(128);
            let me = tmk.proc_id();
            if me < 4 {
                let lo = me * 32;
                let mut w = tmk.write(a, lo..lo + 32);
                for i in lo..lo + 32 {
                    w[i] = (1000 * me + i) as f64;
                }
            }
            tmk.barrier(0);
            // The reader's `[diff, page]` requests: the snapshot is
            // cluster-wide, so only the reader brackets its own read.
            let seen = if me == 4 {
                let snap = tmk.node().stats().snapshot();
                let sum: f64 = tmk.read(a, 0..128).slice().iter().sum();
                let delta = tmk.node().stats().snapshot().delta(&snap);
                let requests = [MsgKind::DiffReq, MsgKind::PageReq].map(|k| delta.messages(k));
                (sum, requests)
            } else {
                (0.0, [0, 0])
            };
            tmk.barrier(1);
            tmk.finish();
            seen
        };
        let expect: f64 = (0..4)
            .flat_map(|m| (m * 32..m * 32 + 32).map(move |i| (1000 * m + i) as f64))
            .sum();
        let lrc = run_cfg(5, TmkConfig::default(), body);
        let hlrc = run_cfg(5, TmkConfig::hlrc(), body);
        assert_eq!(lrc.results[4].0, expect);
        assert_eq!(hlrc.results[4].0, expect);
        assert_eq!(lrc.results[4].1, [4, 0], "one diff request per writer");
        assert_eq!(hlrc.results[4].1, [0, 1], "one page request per page");
    }

    #[test]
    fn home_override_silences_producer_flushes() {
        // Node 1 writes page 2 of the array, block-cyclically homed at
        // node 2. Overriding the home to the producer (node 1, before
        // any notice names the page) makes the producer's eager flush a
        // local no-op; a later override attempt is refused.
        let out = run_cfg(3, TmkConfig::hlrc(), |tmk| {
            let a = tmk.malloc_f64(512 * 3); // pages 0, 1, 2
            let page = a.first_page + 2;
            assert_eq!(tmk.page_home(page), 2, "block-cyclic default");
            let accepted = tmk.set_page_home(page, 1);
            assert_eq!(tmk.page_home(page), 1);
            tmk.barrier(0);
            if tmk.proc_id() == 1 {
                let mut w = tmk.write(a, 512 * 2..512 * 3);
                for x in w.slice_mut().iter_mut() {
                    *x = 4.0;
                }
            }
            tmk.barrier(1);
            let refused = tmk.set_page_home(page, 2);
            let v = tmk.read_one(a, 512 * 2 + 88);
            tmk.barrier(2);
            let stats = tmk.finish();
            (accepted, refused, v, stats)
        });
        for (accepted, refused, v, _) in &out.results {
            assert!(*accepted, "pre-notice override accepted");
            assert!(!*refused, "post-notice override refused");
            assert_eq!(*v, 4.0);
        }
        // The producer is the home: its writes flush nowhere.
        assert_eq!(out.stats.messages(MsgKind::HomeFlush), 0);
        let dsm = DsmStats::total(out.results.iter().map(|(_, _, _, s)| s));
        assert_eq!(dsm.home_flushes, 0);
        // Consumers still fetch the page — from the producer-home.
        assert_eq!(out.stats.messages(MsgKind::PageReq), 2);
    }

    #[test]
    fn push_and_flush_to_the_same_home_coexist() {
        // Node 1 writes a page homed at node 0 and *also* link-pushes it
        // to node 0 (a push registered for a rendezvous would be dropped:
        // the release delivers there). The push feeds node 0's *working*
        // frame (so its own read takes no fault) while the eager flush feeds
        // the *home copy* (so node 2's whole-page fetch is served) — two
        // separate copies by design, so neither delivery is a duplicate
        // of the other and nothing is dropped. Sequential engine: the
        // message ordering this asserts is virtual-time deterministic.
        let out = Cluster::run(
            ClusterConfig::sp2_on(3, sp2sim::EngineKind::Sequential),
            |node| {
                let tmk = Tmk::new(node, TmkConfig::hlrc());
                let a = tmk.malloc_f64(16); // page 0, homed at node 0
                if tmk.proc_id() == 1 {
                    let mut w = tmk.write(a, 0..16);
                    for i in 0..16 {
                        w[i] = 6.0;
                    }
                    drop(w);
                    let page = 0..16;
                    tmk.push_link(&[(a, vec![page])], &[0]);
                }
                if tmk.proc_id() == 0 {
                    tmk.take_link_push(1);
                }
                tmk.barrier(0);
                let faults_before = tmk.stats_snapshot().faults;
                // Node 2 did not get a push: its read fetches the page
                // whole from the home copy. Node 0's read is satisfied
                // by the pushed diff, fault-free.
                let v = tmk.read_one(a, 3);
                let faulted = tmk.stats_snapshot().faults > faults_before;
                tmk.barrier(1);
                let stats = tmk.finish();
                (v, faulted, stats)
            },
        );
        for (v, _, _) in &out.results {
            assert_eq!(*v, 6.0);
        }
        assert!(!out.results[0].1, "the push made the home's read local");
        assert!(out.results[2].1, "node 2 faulted and fetched");
        let dsm = DsmStats::total(out.results.iter().map(|(_, _, s)| s));
        assert_eq!(dsm.stale_flush_drops, 0, "push and flush are not dupes");
        assert!(
            dsm.page_fetches >= 1,
            "node 2 was served from the home copy"
        );
    }
}
