//! The seam between the runtime and its coherence protocols.
//!
//! LRC and HLRC differ in one decision — where a diff lives between the
//! release that creates it and the miss that needs it — and only
//! [`crate::lrc`] and [`crate::hlrc`] know it. The rest of the crate
//! reaches them through four hooks, dispatched here by a plain `match`
//! on the configuration's [`ProtocolMode`]; no other non-test code
//! compares the protocol.
//!
//! | hook | asked by | LRC | HLRC |
//! |---|---|---|---|
//! | on-release | `Tmk::publish` | seal the interval | … freeze its pages, keep the newest range, flush to the homes |
//! | resolve-miss | a view's fault, `Tmk::validate` | diff requests to the writers | page requests to the homes |
//! | serve | the service loop, for an opcode it does not know | `DIFF_REQ`, `VALIDATE_REQ` | `HOME_FLUSH`, `PAGE_REQ` |
//! | on-rendezvous | manager, pusher, participant | diffs, or rewritten spans, in a push | a floor on the departures, pages in a push, the prune |
//!
//! On-release is also asked as a question — where does a release
//! deliver? (`ProtocolMode::release_delivers`,
//! `ProtocolMode::home_candidates`) — and on-rendezvous by each of a
//! rendezvous' three parties.

use std::ops::Range;

use sp2sim::{CostModel, Endpoint, Packet, Payload, StateCell, VTime};

use crate::config::ProtocolMode::{self, Hlrc, Lrc};
use crate::dsm::Tmk;
use crate::page::PageId;
use crate::protocol::DiffRespEntry;
use crate::state::{Arrival, DsmState};
use crate::vc::Vc;
use crate::{hlrc, lrc};

/// What a miss asks of [`ProtocolMode::resolve_miss`]: a view's fault or
/// a CRI validate.
pub(crate) struct Miss<'a> {
    /// The pages to make consistent: sorted, disjoint runs of global page
    /// ids (a fault's is the one run under its view).
    pub(crate) runs: &'a [Range<usize>],
    /// One access fault for all of them and one request per destination
    /// (the integrated compile-time/run-time scheme of Dwarkadas et
    /// al.), not one of each per invalid page like the original
    /// mprotect-driven system.
    pub(crate) aggregated: bool,
    /// A validate: counted as one, and requested on opcodes of its own.
    pub(crate) validate: bool,
    /// A write view's fault, which opens the armed pages under it as
    /// written (`DsmState::open_armed`).
    pub(crate) write: bool,
    /// The global words a view's fault reads, which fetch the holes they
    /// overlap (`crate::hole`); empty for a validate.
    pub(crate) words: Range<usize>,
}

/// The pages one push message carries: ascending, each with the words
/// its target reads there — `meets[i]` indexes the page-relative runs
/// `words`, and is empty for the whole page.
pub(crate) struct PushList<'a> {
    pub(crate) pages: &'a [PageId],
    pub(crate) meets: &'a [Range<usize>],
    pub(crate) words: &'a [Range<usize>],
}

impl<'a> PushList<'a> {
    /// The words the target of the push reads on its `i`-th page, `None`
    /// for the whole page.
    pub(crate) fn meet(&self, i: usize) -> Option<&'a [Range<usize>]> {
        let m = &self.meets[i];
        (!m.is_empty()).then(|| &self.words[m.clone()])
    }
}

impl Miss<'_> {
    /// The pages, ascending.
    pub(crate) fn pages(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs.iter().cloned().flatten()
    }
}

/// The containers the fault, fetch, publish and push planners and the
/// windowed reduction fill and drain on every call: kept for their
/// capacity, cleared where they are consumed, never freed. One
/// application fiber per node uses them (`Tmk` is `!Send`), one planner
/// at a time.
pub(crate) struct Scratch {
    /// LRC: the diff requests of a miss, per writer.
    pub(crate) by_writer: Vec<Vec<lrc::DiffReqEntry>>,
    /// HLRC: the invalid pages of a miss…
    pub(crate) whole: Vec<PageId>,
    /// …and the same pages per home; the pages of a release, per home.
    pub(crate) by_home: Vec<Vec<PageId>>,
    /// HLRC: a release's `HOME_FLUSH` messages, built under the state
    /// lock and sent after it, homes ascending.
    pub(crate) flushes: Vec<(usize, Payload)>,
    /// HLRC: page responses, where they landed.
    pub(crate) responses: Vec<Packet>,
    /// Requests sent and not yet answered: `(server, request id)`.
    pub(crate) outstanding: Vec<(usize, u32)>,
    /// Fetched or pushed diff ranges: `(writer, entry)`.
    pub(crate) entries: Vec<(usize, DiffRespEntry)>,
    /// A windowed reduction's outgoing slices: `(node, elements, words)`.
    pub(crate) slices: Vec<(usize, Range<usize>, Vec<u64>)>,
    /// A rendezvous' pushes: each distinct page list once, back to back…
    pub(crate) push_pages: Vec<PageId>,
    /// …as `(its pages, how many targets get it, its message once
    /// packed)`…
    pub(crate) push_lists: Vec<(Range<usize>, usize, Option<Payload>)>,
    /// …and `(target, its list)`, targets ascending. Each page of
    /// `push_pages` has the words its targets read there in
    /// `push_meets` ([`PushList`]), which index `push_words`.
    pub(crate) push_order: Vec<(usize, usize)>,
    pub(crate) push_meets: Vec<Range<usize>>,
    pub(crate) push_words: Vec<Range<usize>>,
}

impl Scratch {
    /// Empty containers for a cluster of `n`.
    pub(crate) fn new(n: usize) -> Scratch {
        Scratch {
            by_writer: vec![Vec::new(); n],
            whole: Vec::new(),
            by_home: vec![Vec::new(); n],
            flushes: Vec::new(),
            responses: Vec::new(),
            outstanding: Vec::new(),
            entries: Vec::new(),
            slices: Vec::new(),
            push_pages: Vec::new(),
            push_lists: Vec::new(),
            push_order: Vec::new(),
            push_meets: Vec::new(),
            push_words: Vec::new(),
        }
    }
}

impl ProtocolMode {
    /// On-release: publish this node's writes — the interval, and
    /// whatever the protocol sends at a release.
    pub(crate) fn on_release(self, tmk: &Tmk<'_>) {
        match self {
            Lrc => lrc::on_release(tmk),
            Hlrc => hlrc::on_release(tmk),
        }
    }

    /// On-release, as a question: does this node's release already
    /// deliver `page` to node `q`? To the page's home, if the protocol
    /// has homes.
    pub(crate) fn release_delivers(self, st: &DsmState, page: PageId, q: usize) -> bool {
        match self {
            Lrc => false,
            Hlrc => st.home_of(page) == q,
        }
    }

    /// On-release, before it is moved: the `(page, producer)` pairs that
    /// would make a producer the place its pages are delivered to. A
    /// protocol that delivers nothing at a release does not ask for
    /// them: building the list evaluates descriptors, and an inspection
    /// charges virtual time.
    pub(crate) fn home_candidates(
        self,
        candidates: impl FnOnce() -> Vec<(usize, usize)>,
    ) -> Vec<(usize, usize)> {
        match self {
            Lrc => Vec::new(),
            Hlrc => candidates(),
        }
    }

    /// Resolve-miss: plan, request and await what makes the pages of
    /// `miss` consistent. Fetched diff ranges are left in `sc.entries`
    /// for the caller to apply; whole pages are installed. Returns the
    /// number of invalid pages.
    pub(crate) fn resolve_miss(self, tmk: &Tmk<'_>, sc: &mut Scratch, miss: &Miss<'_>) -> u64 {
        match self {
            Lrc => lrc::resolve_miss(tmk, sc, miss),
            Hlrc => hlrc::resolve_miss(tmk, sc, miss),
        }
    }

    /// Serve: handle the request `opcode` if the protocol knows it.
    /// `false` sends the service loop down its unknown-opcode path — a
    /// request of the *other* protocol included.
    pub(crate) fn serve(
        self,
        ep: &Endpoint,
        state: &StateCell<DsmState>,
        opcode: u64,
        payload: Payload,
        arrival: VTime,
        seq: u64,
    ) -> bool {
        match self {
            Lrc => lrc::serve(ep, state, opcode, payload, arrival, seq),
            Hlrc => hlrc::serve(ep, state, opcode, payload, arrival, seq),
        }
    }

    /// On-rendezvous, manager: the watermarks every departure of the
    /// epoch piggybacks (`extra`: the clock of a master that sent no
    /// arrival). Empty when the protocol has nothing to prune — the
    /// departures are not padded with `n` words.
    pub(crate) fn rendezvous_floor(
        self,
        arrivals: &[Arrival],
        extra: Option<&Vc>,
        n: usize,
    ) -> Vec<u32> {
        match self {
            Lrc => Vec::new(),
            Hlrc => hlrc::rendezvous_floor(arrivals, extra, n),
        }
    }

    /// Does a push of this protocol carry only the words its target
    /// reads of a page ([`PushList::meet`]), the rest of the page's range
    /// a hole (`crate::hole`)? LRC's does; HLRC's carries every page
    /// whole.
    pub(crate) fn pushes_meets(self) -> bool {
        self == Lrc
    }

    /// On-rendezvous, pusher: the payload of a push of `list`, each
    /// page's newest range reaching interval `last`, frozen into the push
    /// if it was still open — or, under LRC, the meet of that range with
    /// the words its target reads there ([`PushList::meet`]) — and
    /// whatever else the protocol's consumers need to use it. `spans` (by
    /// page) are the words of pages the pusher rewrote, which supersede
    /// what a consumer holds: LRC carries them instead of the pages'
    /// ranges ([`lrc::push_payload`]); HLRC's push carries every page
    /// whole anyway. `charge` is handed each page's freeze time.
    pub(crate) fn push_payload(
        self,
        st: &mut DsmState,
        list: &PushList,
        spans: &[(PageId, Range<usize>)],
        last: u32,
        cost: &CostModel,
        charge: impl FnMut(f64),
    ) -> Payload {
        match self {
            Lrc => lrc::push_payload(st, list, spans, last, cost, charge),
            Hlrc => hlrc::push_payload(st, list.pages, last, cost, charge),
        }
    }

    /// On-rendezvous, participant: the departure carried `floor`; fold
    /// what every node has passed into the home copies' bases.
    pub(crate) fn on_rendezvous(self, st: &mut DsmState, floor: &[u64]) {
        match self {
            Lrc => {}
            Hlrc if floor.is_empty() => {}
            Hlrc => _ = st.prune_home_copies(floor),
        }
    }
}
