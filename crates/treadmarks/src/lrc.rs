//! LRC, the original TreadMarks protocol: a diff lives with its
//! **writer**.
//!
//! A release publishes write notices only; the diff of a page is
//! materialized the first time somebody asks its writer for it, straight
//! into the response ([`DsmState::put_entries`]), and every frozen range
//! is kept, because any node may still ask for history. A miss sends one
//! diff request to every writer that has an unapplied notice for the
//! page.
//!
//! This module is the protocol's half of the seam in
//! [`crate::coherence`]: its hooks — `on_release`, `resolve_miss`,
//! `serve` and, of the rendezvous, `push_payload` (no floor rides
//! LRC's departures and nothing is pruned) — and its wire codec
//! (`DIFF_REQ` / `VALIDATE_REQ`). It owns no [`DsmState`] field: the
//! frozen history in [`crate::state::PageDiffs`] is all it keeps.

use sp2sim::{
    CostModel, EdgeKind, Endpoint, MsgKind, Payload, Port, StateCell, VTime, WordReader, WordWriter,
};

use crate::coherence::{Miss, Scratch};
use crate::diff::{DiffBatch, Landed};
use crate::dsm::{trace, Tmk};
use crate::page::PageId;
use crate::protocol::{self, op, tag};
use crate::state::{Carry, DsmState};

/// On-release: create the interval covering all dirty pages. The diffs
/// stay where they are — unmaterialized, with their writer.
pub(crate) fn on_release(tmk: &Tmk<'_>) {
    let (us, _) = tmk.state.lock().flush(tmk.node.cost());
    tmk.node.advance(us);
}

/// Resolve-miss: every writer with an unapplied notice for an invalid
/// page is asked for its diffs from that notice on — one request per
/// writer under aggregation, else one per page per writer (default
/// TreadMarks behaviour) — and the ranges that come back are left in
/// `sc.entries` for the caller's [`crate::dsm::apply_fetched`].
pub(crate) fn resolve_miss(tmk: &Tmk<'_>, sc: &mut Scratch, miss: &Miss<'_>) -> u64 {
    let by_writer = &mut sc.by_writer;
    let invalid = tmk.plan_miss(miss, |st| {
        let me = st.me;
        let mut invalid = 0;
        for page in miss.pages() {
            if !st.faults_on(page) {
                continue;
            }
            invalid += 1;
            let applied = st.frames.applied(page);
            for writer in (0..st.n).filter(|&w| w != me) {
                let done = applied.map_or(0, |a| a[writer]);
                let first = st.notices.first_after(page, writer, done, &st.log[writer]);
                if let Some(first_needed) = first {
                    trace!(
                        "[{me}] fetch plan: page {page} writer {writer} from seq {first_needed}"
                    );
                    by_writer[writer].push(DiffReqEntry { page, first_needed });
                }
            }
        }
        invalid
    });
    // A validate is a diff request on an opcode, tag and kind of its
    // own, so the traffic tables can attribute it.
    let (opcode, kind, resp) = if miss.validate {
        (op::VALIDATE_REQ, MsgKind::ValidateReq, tag::VALIDATE_RESP)
    } else {
        (op::DIFF_REQ, MsgKind::DiffReq, tag::DIFF_RESP)
    };
    let me = tmk.proc_id();
    let encode = |id, reqs: &[DiffReqEntry]| encode_diff_req(opcode, id, me, reqs);
    tmk.send_requests(
        by_writer,
        miss.aggregated,
        kind,
        &mut sc.outstanding,
        encode,
    );
    // Every entry's diff is a window onto the response it came in.
    let entries = &mut sc.entries;
    tmk.await_responses(&mut sc.outstanding, resp, |writer, pkt| {
        let msg = Landed::new(pkt.payload);
        let mut r = msg.reader();
        entries.extend(protocol::decode_diff_entries(&msg, &mut r).map(|e| (writer, e)));
    });
    invalid
}

/// On-rendezvous, pusher: the payload of a push of `pages` (each with a
/// range reaching interval `last`) — each page's newest range, frozen
/// into the push if it was still open, which a consumer that tracked the
/// page applies like a fetched one. `charge` as in
/// [`DsmState::put_entries`].
pub(crate) fn push_payload(
    st: &mut DsmState,
    pages: &[PageId],
    last: u32,
    cost: &CostModel,
    charge: impl FnMut(f64),
) -> Payload {
    let reqs = pages.iter().map(|&p| (p, last));
    let mut msg = DiffBatch::message();
    msg.put(protocol::PUSH_MODE_DIFFS);
    st.put_entries(&mut msg, reqs, Carry::Newest, cost, charge);
    st.finish_message(msg)
}

/// Serve: a diff request, or a CRI aggregated validate — the same
/// serving logic (the difference is on the requesting side, where one
/// validate covers every page of a phase) answered on its own tag and
/// kind (`false`: not this protocol's).
pub(crate) fn serve(
    ep: &Endpoint,
    state: &StateCell<DsmState>,
    opcode: u64,
    payload: Payload,
    arrival: VTime,
    seq: u64,
) -> bool {
    let (resp_tag, resp_kind) = match opcode {
        op::DIFF_REQ => (tag::DIFF_RESP, MsgKind::DiffResp),
        op::VALIDATE_REQ => (tag::VALIDATE_RESP, MsgKind::ValidateResp),
        _ => return false,
    };
    let mut r = WordReader::new(&payload);
    r.get(); // the opcode the service loop dispatched on
    let (req_id, requester, entries) = decode_diff_req(&mut r);
    let reqs = entries.map(|e| (e.page, e.first_needed));
    let mut st = state.lock();
    let cost = ep.cost();
    // Diff creation for a multi-page (aggregated) request is pipelined
    // with transmission: only the first page's materialization delays the
    // response; the rest overlaps serialization. The response is one
    // batch: the ranges frozen earlier are copied in, the open ones
    // frozen straight into it (and kept sealed apart from any copy: the
    // history outlives the response).
    let mut first_us: f64 = 0.0;
    let mut msg = DiffBatch::message();
    st.put_entries(&mut msg, reqs, Carry::History, cost, |page_us| {
        first_us = first_us.max(page_us)
    });
    let payload = st.finish_message(msg);
    let service_us = cost.service_us + first_us;
    drop(st);
    let out_seq = ep.send_at(
        requester,
        Port::App,
        resp_tag | (req_id & 0xFFFF),
        resp_kind,
        payload,
        arrival + service_us,
    );
    ep.trace_edge(EdgeKind::Response, out_seq, seq, arrival);
    true
}

/// One entry of a diff request: fetch `page` from the destination writer,
/// intervals `first_needed` and beyond.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffReqEntry {
    /// Page to fetch.
    pub page: PageId,
    /// First missing interval sequence number.
    pub first_needed: u32,
}

/// Encode a diff request under `opcode` (`DIFF_REQ` or `VALIDATE_REQ` —
/// both share the entry format).
pub fn encode_diff_req(
    opcode: u64,
    req_id: u32,
    requester: usize,
    entries: &[DiffReqEntry],
) -> Vec<u64> {
    let mut w = WordWriter::with_capacity(4 + entries.len() * 2);
    w.put(opcode)
        .put(req_id as u64)
        .put_usize(requester)
        .put_usize(entries.len());
    for e in entries {
        w.put_usize(e.page).put(e.first_needed as u64);
    }
    w.finish()
}

/// Decode the body of a diff request (after the opcode word):
/// `(req_id, requester, entries)`, the entries read where they landed —
/// the server walks them once to freeze and once to answer, so the
/// iterator is `Clone`.
pub fn decode_diff_req<'a>(
    r: &mut WordReader<'a>,
) -> (
    u32,
    usize,
    impl ExactSizeIterator<Item = DiffReqEntry> + Clone + 'a,
) {
    let req_id = r.get() as u32;
    let requester = r.get_usize();
    let n = r.get_count(2);
    let entries = r.take(2 * n).chunks_exact(2).map(|e| DiffReqEntry {
        page: e[0] as usize,
        first_needed: e[1] as u32,
    });
    (req_id, requester, entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_req_roundtrip() {
        let entries = vec![
            DiffReqEntry {
                page: 4,
                first_needed: 2,
            },
            DiffReqEntry {
                page: 9,
                first_needed: 1,
            },
        ];
        // A validate shares the entry format.
        for opcode in [op::DIFF_REQ, op::VALIDATE_REQ] {
            let buf = encode_diff_req(opcode, 33, 5, &entries);
            let mut r = WordReader::new(&buf);
            assert_eq!(r.get(), opcode);
            let (id, who, got) = decode_diff_req(&mut r);
            assert_eq!(id, 33);
            assert_eq!(who, 5);
            assert_eq!(got.len(), 2);
            assert_eq!(got.clone().collect::<Vec<_>>(), entries);
            assert_eq!(got.collect::<Vec<_>>(), entries, "walked twice");
            assert!(r.is_exhausted());
        }
    }
}
