//! The protocol service loop.
//!
//! One service loop runs per node — a fiber of its own beside the
//! application's — playing the role of TreadMarks' SIGIO-driven request
//! handlers: it serves diff requests, participates in the distributed
//! lock protocol, and (on the manager node) collects barrier arrivals
//! and issues departures. It shares the node's [`DsmState`] with the
//! application through a [`StateCell`] and never blocks on remote
//! operations, which makes the protocol deadlock-free by construction.
//!
//! Virtual-time model: a response becomes available at
//! `request arrival + service cost` — the service processor is modelled as
//! interrupt-driven and not contended, which is also why the resulting
//! virtual times are deterministic.

use std::rc::Rc;

use sp2sim::{EdgeKind, Endpoint, MsgKind, Port, StateCell, VTime, WordReader};

use crate::config::ProtocolMode;
use crate::diff::Landed;
use crate::protocol::{self, op, tag};
use crate::state::DsmState;

/// Run the service loop until a `SHUTDOWN` opcode or cluster teardown.
///
/// A malformed request (unknown opcode) must not abort a whole
/// parameter sweep: it is logged, counted in
/// [`DsmStats::service_errors`](crate::DsmStats), and the loop shuts
/// down gracefully — subsequent remote requests to this node will stall
/// their senders, but the local application, and every other
/// simulation of the sweep, keeps running.
pub fn service_loop(ep: Endpoint, state: Rc<StateCell<DsmState>>) {
    while let Some(pkt) = ep.recv_any_raw() {
        let arrival = pkt.arrival;
        let mut r = WordReader::new(&pkt.payload);
        let opcode = r.get();
        if ep.tracing() && opcode != op::SHUTDOWN {
            // The nominal per-request dispatch cost; handlers add their
            // own data-dependent time on top, which the trace captures
            // through the response's send/recv events.
            ep.trace_service(opcode as u32, arrival, ep.cost().service_us);
        }
        let seq = pkt.seq;
        match opcode {
            op::DIFF_REQ => handle_diff_req(&ep, &state, &mut r, arrival, seq),
            op::VALIDATE_REQ => handle_validate_req(&ep, &state, &mut r, arrival, seq),
            // A flush, an arrival, a fork and a page request are kept
            // where they landed — the home's buffered ranges and the
            // manager's interval log are windows onto the payload, a
            // fork waits for the workers, a deferred request is read again
            // at every retry — so the payload is handed over by value.
            op::HOME_FLUSH => handle_home_flush(&ep, &state, pkt.payload, arrival, seq),
            op::PAGE_REQ => handle_page_req(&ep, &state, pkt.payload, arrival, seq),
            op::REDUCE_PART => handle_reduce_part(&ep, &state, &mut r, arrival, seq),
            op::REDUCE_LIST => handle_reduce_list(&ep, &state, &mut r, arrival, seq),
            op::LOCK_REQ => handle_lock_req(&ep, &state, &mut r, arrival, seq),
            op::BARRIER_ARRIVE | op::WORKER_ARRIVE => {
                handle_arrival(&ep, &state, pkt.payload, arrival, seq)
            }
            op::MASTER_FORK => handle_master_fork(&ep, &state, pkt.payload, arrival, seq),
            op::MASTER_JOIN => handle_master_join(&ep, &state, &mut r, arrival, seq),
            op::SHUTDOWN => break,
            other => {
                eprintln!(
                    "treadmarks[{}]: unknown service opcode {other:#x} from node {} \
                     ({} payload words); shutting the service loop down",
                    ep.id(),
                    pkt.src,
                    pkt.payload.len(),
                );
                let mut st = state.lock();
                st.stats.service_errors += 1;
                st.stats.last_bad_opcode.get_or_insert(other);
                break;
            }
        }
    }
}

fn handle_diff_req(
    ep: &Endpoint,
    state: &StateCell<DsmState>,
    r: &mut WordReader,
    arrival: VTime,
    seq: u64,
) {
    serve_page_req(
        ep,
        state,
        r,
        arrival,
        seq,
        tag::DIFF_RESP,
        MsgKind::DiffResp,
    );
}

/// CRI aggregated validate: identical serving logic to a diff request —
/// the difference is on the requesting side, where one validate covers
/// every page of a phase — answered on its own tag/kind so the traffic
/// tables can attribute it.
fn handle_validate_req(
    ep: &Endpoint,
    state: &StateCell<DsmState>,
    r: &mut WordReader,
    arrival: VTime,
    seq: u64,
) {
    serve_page_req(
        ep,
        state,
        r,
        arrival,
        seq,
        tag::VALIDATE_RESP,
        MsgKind::ValidateResp,
    );
}

#[allow(clippy::too_many_arguments)]
fn serve_page_req(
    ep: &Endpoint,
    state: &StateCell<DsmState>,
    r: &mut WordReader,
    arrival: VTime,
    seq: u64,
    resp_tag: u32,
    resp_kind: MsgKind,
) {
    let (req_id, requester, entries) = protocol::decode_diff_req(r);
    let mut st = state.lock();
    // Only LRC nodes send diff requests, and a cluster runs one protocol
    // — which is what lets an HLRC writer drop its frozen history (see
    // `DsmState::freeze`).
    debug_assert_ne!(
        st.cfg.protocol,
        ProtocolMode::Hlrc,
        "diff request at an HLRC node"
    );
    let cost = ep.cost();
    // Diff creation for a multi-page (aggregated) request is pipelined
    // with transmission: only the first page's materialization delays the
    // response; the rest overlaps serialization. The diffs the request
    // materializes are one batch in one buffer.
    let mut first_us: f64 = 0.0;
    st.freeze_all(
        entries.clone().map(|e| (e.page, e.first_needed)),
        cost,
        |page_us| first_us = first_us.max(page_us),
    );
    let (mut ranges, mut words) = (0, 1);
    for e in entries.clone() {
        for range in st.frozen_from(e.page, e.first_needed) {
            ranges += 1;
            words += protocol::diff_entry_words(range);
        }
    }
    // The response is written straight out of the frozen lists.
    let mut w = sp2sim::WordWriter::with_capacity(words);
    w.put_usize(ranges);
    for e in entries {
        for range in st.frozen_from(e.page, e.first_needed) {
            protocol::encode_diff_entry(&mut w, e.page, range);
        }
    }
    let service_us = cost.service_us + first_us;
    drop(st);
    let out_seq = ep.send_at(
        requester,
        Port::App,
        resp_tag | (req_id & 0xFFFF),
        resp_kind,
        w.finish(),
        arrival + service_us,
    );
    ep.trace_edge(EdgeKind::Response, out_seq, seq, arrival);
}

/// HLRC: a writer's eager flush arrives at this home. Each range is
/// buffered into the page's home copy (duplicate ranges the copy
/// already holds are dropped, never re-applied — the stale-flush
/// guard), then any deferred page request this flush completes is
/// answered.
fn handle_home_flush(
    ep: &Endpoint,
    state: &StateCell<DsmState>,
    payload: Vec<u64>,
    arrival: VTime,
    seq: u64,
) {
    let msg = Landed::new(payload);
    let mut r = msg.reader();
    r.get(); // the opcode the service loop dispatched on
    let (writer, entries) = protocol::decode_home_flush(&msg, &mut r);
    let mut st = state.lock();
    for e in entries {
        st.home_flush_in(
            writer,
            e.page,
            crate::state::DiffRange {
                lo: e.lo,
                hi: e.hi,
                lamport: e.lamport,
                diff: e.diff,
            },
        );
    }
    serve_ready_page_reqs(ep, &mut st, arrival, seq);
}

/// HLRC: a whole-page fetch arrives at this home. If the buffered
/// ranges can construct every requested page at the requester's
/// watermarks, the full pages are returned in one response. Otherwise
/// the request is deferred until the missing flushes arrive — they are
/// always in flight, because a writer flushes every interval at the
/// release that publishes its notice, before that notice can reach any
/// requester.
fn handle_page_req(
    ep: &Endpoint,
    state: &StateCell<DsmState>,
    payload: Vec<u64>,
    arrival: VTime,
    seq: u64,
) {
    let mut st = state.lock();
    if !serve_page_fetch(ep, &mut st, &payload, arrival, seq) {
        st.waiting_page_reqs.push(crate::state::WaitingPageReq {
            payload,
            arrival,
            seq,
        });
    }
}

/// Answer every deferred page request the current flush state can
/// satisfy. `now` is the arrival time of the flush that triggered the
/// retry: a deferred response cannot leave before the data it waited
/// for has arrived. A response that waited is causally anchored on the
/// flush (`flush_seq`) that unblocked it, not on its own request.
fn serve_ready_page_reqs(ep: &Endpoint, st: &mut DsmState, now: VTime, flush_seq: u64) {
    // One pass in list order: serving a request changes no page's
    // coverage, so none becomes ready behind the cursor.
    let mut waiting = std::mem::take(&mut st.waiting_page_reqs);
    waiting.retain(|wr| {
        let (at, cause) = if wr.arrival > now {
            (wr.arrival, wr.seq)
        } else {
            (now, flush_seq)
        };
        !serve_page_fetch(ep, st, &wr.payload, at, cause)
    });
    debug_assert!(st.waiting_page_reqs.is_empty());
    st.waiting_page_reqs = waiting;
}

/// Answer the page request `payload`, its rows read where they landed,
/// if the buffered ranges cover every row (`false`: not yet — the caller
/// keeps the request): construct every requested page at exactly the
/// requester's watermarks (see [`DsmState::home_serve`]) and reply with
/// the full pages. Construction of a multi-page response is pipelined
/// with transmission like an aggregated diff response: only the
/// costliest page's construction delays the reply.
fn serve_page_fetch(
    ep: &Endpoint,
    st: &mut DsmState,
    payload: &[u64],
    arrival: VTime,
    cause_seq: u64,
) -> bool {
    let mut r = WordReader::new(payload);
    r.get(); // the opcode the service loop dispatched on
    let (req_id, requester, rows) = protocol::decode_page_fetch_req(&mut r, st.n);
    if !(rows.clone()).all(|(page, required)| st.home_covers(page, required)) {
        return false;
    }
    let cost = ep.cost();
    let mut first_us: f64 = 0.0;
    let words = protocol::page_resp_words(rows.len(), st.n, st.cfg.page_words);
    let mut w = sp2sim::WordWriter::with_capacity(words);
    w.put_usize(rows.len());
    for (page, required) in rows {
        let (data, applied, us) = st.home_serve(page, required, cost);
        protocol::encode_page_entry(&mut w, page, applied, data);
        first_us = first_us.max(us);
    }
    let out_seq = ep.send_at(
        requester,
        Port::App,
        tag::PAGE_RESP | (req_id & 0xFFFF),
        MsgKind::PageResp,
        w.finish(),
        arrival + cost.service_us + first_us,
    );
    ep.trace_edge(EdgeKind::Response, out_seq, cause_seq, arrival);
    true
}

/// CRI direct reduction: a child subtree's partial arrives; combine it
/// into the slot and forward the subtree total when complete. The
/// application's own deposit uses the same slot (see
/// [`Tmk::reduce`](crate::Tmk::reduce)), so whichever contribution
/// arrives last triggers the forwarding.
fn handle_reduce_part(
    ep: &Endpoint,
    state: &StateCell<DsmState>,
    r: &mut WordReader,
    arrival: VTime,
    pkt_seq: u64,
) {
    let (seq, src, op_code, vals) = protocol::decode_reduce_part(r);
    let op = crate::state::ReduceOp::from_code(op_code);
    let combined = state
        .lock()
        .reduce_contribute(seq as u64, Some(src), vals, op);
    if let Some(total) = combined {
        forward_reduce(
            ep,
            seq,
            op,
            &total,
            arrival + ep.cost().service_us,
            Some((pkt_seq, arrival)),
        );
    }
}

/// Send a completed subtree total one hop: up to the parent's service
/// (interior node) or to the root's own application port (the total).
/// `edge` is the causal anchor when the forwarding was triggered by an
/// incoming `REDUCE_PART` on the service loop; `None` when the local
/// application's own deposit completed the slot (the send then sits on
/// the app track, which is its own causal anchor).
pub(crate) fn forward_reduce(
    ep: &Endpoint,
    seq: u32,
    op: crate::state::ReduceOp,
    total: &[f64],
    ready: VTime,
    edge: Option<(u64, VTime)>,
) {
    let me = ep.id();
    let out_seq = if me == 0 {
        // Self-delivery: a local upcall, free and uncounted.
        ep.send_at(
            me,
            Port::App,
            tag::REDUCE_DONE | (seq & 0xFFFF),
            MsgKind::Control,
            protocol::encode_reduce_vals(total),
            ready,
        )
    } else {
        ep.send_at(
            crate::state::reduce_parent(me),
            Port::Service,
            0,
            MsgKind::ReducePart,
            protocol::encode_reduce_part(seq, me, op.code(), total),
            ready,
        )
    };
    if let Some((cause_seq, at)) = edge {
        ep.trace_edge(EdgeKind::Response, out_seq, cause_seq, at);
    }
}

/// CRI windowed ordered reduction: a peer's window arrives at the
/// gather root; record it and, when the gather is complete, upcall the
/// full sorted list to the root's application (which folds in rank
/// order and scatters — see
/// [`Tmk::reduce_windows`](crate::Tmk::reduce_windows)). Windows are
/// never combined here: pre-folding would change the addition grouping
/// the whole mechanism exists to preserve.
fn handle_reduce_list(
    ep: &Endpoint,
    state: &StateCell<DsmState>,
    r: &mut WordReader,
    arrival: VTime,
    pkt_seq: u64,
) {
    let (seq, src, windows) = protocol::decode_reduce_list(r);
    let complete = state
        .lock()
        .reduce_list_contribute(seq as u64, Some(src), windows);
    if let Some(list) = complete {
        // Self-delivery to the root's application port: a local upcall,
        // free and uncounted.
        let out_seq = ep.send_at(
            ep.id(),
            Port::App,
            tag::REDUCE_LIST_DONE | (seq & 0xFFFF),
            MsgKind::Control,
            protocol::encode_reduce_list(seq, ep.id(), &list),
            arrival + ep.cost().service_us,
        );
        ep.trace_edge(EdgeKind::Response, out_seq, pkt_seq, arrival);
    }
}

fn handle_lock_req(
    ep: &Endpoint,
    state: &StateCell<DsmState>,
    r: &mut WordReader,
    arrival: VTime,
    seq: u64,
) {
    let me = ep.id();
    let n = ep.nprocs();
    let (lock, requester, vc) = protocol::decode_lock_req(r, n);
    let mgr = lock as usize % n;
    let mut st = state.lock();
    let manager_us = ep.cost().manager_us;

    if me == mgr {
        // Manager role: find the last node the lock was directed to and
        // redirect the chain to the requester.
        let owner = *st.lock_owner.get(&lock).unwrap_or(&mgr);
        st.lock_owner.insert(lock, requester);
        if owner != me {
            // Forward to the (possibly future) holder — still under the
            // state lock, so that forwards and the manager application's
            // own requests (`Tmk::acquire`) leave in the order the
            // ownership table serialized them.
            let out_seq = ep.send_at(
                owner,
                Port::Service,
                0,
                MsgKind::LockFwd,
                protocol::encode_lock_req(lock, requester, &vc),
                arrival + manager_us,
            );
            ep.trace_edge(EdgeKind::LockHandoff, out_seq, seq, arrival);
            return;
        }
        // else: we are also the holder-side — fall through.
    }

    holder_grant_or_queue(ep, &mut st, lock, requester, vc, arrival + manager_us, seq);
}

/// Holder-side handling of a lock request.
///
/// Token discipline (deadlock freedom): if the token is here and the
/// application is not holding the lock, the request is granted
/// immediately — even if our own re-acquire is chasing the token through
/// the chain, because the manager serialized that request after this one.
/// Only a node that truly holds the lock, or that is itself waiting for
/// the token to arrive, queues the request for its next release.
#[allow(clippy::too_many_arguments)]
fn holder_grant_or_queue(
    ep: &Endpoint,
    st: &mut DsmState,
    lock: u32,
    requester: usize,
    vc: crate::vc::Vc,
    ready: VTime,
    req_seq: u64,
) {
    let me = ep.id();
    let service_us = ep.cost().service_us;
    let lk = st.lock_entry(lock);
    if requester == me {
        // Our own request chased the chain back to us (we kept the
        // token): grant locally, no further message. The lock is marked
        // held *now*, under the state mutex — the self-grant is an
        // asynchronous upcall, and until the application consumes it a
        // concurrently arriving remote request would otherwise observe
        // `has_token && !held` and steal the token, putting two nodes in
        // the critical section at once (a lost-update race).
        debug_assert!(lk.has_token, "self-directed request implies token");
        lk.held = true;
        let release_vt = lk.release_vt;
        st.lock_prof.entry(lock).or_default().record_rest();
        let out_seq = ep.send_at(
            me,
            Port::App,
            tag::LOCK_GRANT | lock,
            MsgKind::Control,
            protocol::encode_lock_grant(std::iter::empty()),
            ready.max(release_vt),
        );
        // A grant gated by our own last release (`release_vt > ready`)
        // is causally local; otherwise the request itself is the cause.
        let cause = if release_vt > ready { 0 } else { req_seq };
        ep.trace_edge(EdgeKind::LockHandoff, out_seq, cause, ready.max(release_vt));
        return;
    }
    if lk.held || !lk.has_token {
        lk.queue.push_back(crate::state::QueuedReq {
            requester,
            vc,
            arrival: ready,
        });
        return;
    }
    // Token present, lock free: hand the token over.
    lk.has_token = false;
    let release_vt = lk.release_vt;
    st.lock_prof.entry(lock).or_default().record_handoff();
    let out_seq = ep.send_at(
        requester,
        Port::App,
        tag::LOCK_GRANT | lock,
        MsgKind::LockGrant,
        protocol::encode_lock_grant(st.intervals_since(vc.iter().copied())),
        ready.max(release_vt) + service_us,
    );
    let cause = if release_vt > ready { 0 } else { req_seq };
    ep.trace_edge(EdgeKind::LockHandoff, out_seq, cause, ready.max(release_vt));
}

fn handle_arrival(
    ep: &Endpoint,
    state: &StateCell<DsmState>,
    payload: Vec<u64>,
    arrival: VTime,
    seq: u64,
) {
    let msg = protocol::decode_arrival(Landed::new(payload), ep.nprocs());
    let mut st = state.lock();
    // Intervals are NOT integrated yet: the manager's application fiber
    // may still be computing in the previous epoch and must not observe
    // future write notices. They stay in the message, which the epoch
    // keeps, and are integrated at epoch completion, when the local
    // application is guaranteed to be blocked in the barrier.
    let epoch = msg.epoch;
    let entry = st.epochs.entry(epoch).or_default();
    entry.arrivals.push(crate::state::Arrival {
        msg,
        at: arrival,
        seq,
    });
    try_complete_epoch(ep, &mut st, epoch);
}

fn handle_master_fork(
    ep: &Endpoint,
    state: &StateCell<DsmState>,
    payload: Vec<u64>,
    arrival: VTime,
    seq: u64,
) {
    let epoch = payload[1];
    let mut st = state.lock();
    let entry = st.epochs.entry(epoch).or_default();
    entry.fork_msg = Some(payload);
    entry.fork_vt = arrival;
    entry.fork_seq = seq;
    try_complete_epoch(ep, &mut st, epoch);
}

fn handle_master_join(
    ep: &Endpoint,
    state: &StateCell<DsmState>,
    r: &mut WordReader,
    arrival: VTime,
    seq: u64,
) {
    let epoch = r.get();
    let mut st = state.lock();
    let entry = st.epochs.entry(epoch).or_default();
    entry.joined = true;
    entry.join_vt = arrival;
    entry.join_seq = seq;
    try_complete_epoch(ep, &mut st, epoch);
}

/// Order epoch arrivals by (virtual arrival time, node id) before the
/// departures are serialized through the manager's link. The order in
/// which the service loop happened to process the arrivals is the
/// schedule's; sorting makes the departure sequence — and with it each
/// node's departure time — a pure function of virtual time, which keeps
/// results schedule-independent wherever virtual arrival times
/// themselves are.
fn sort_arrivals(arrivals: &mut [crate::state::Arrival]) {
    arrivals.sort_by(|a, b| {
        a.at.partial_cmp(&b.at)
            .expect("virtual times are never NaN")
            .then(a.msg.src.cmp(&b.msg.src))
    });
}

/// The correlation id of the *critical* arrival: the one the epoch's
/// completion time waits on (latest virtual arrival, ties by node id,
/// matching [`sort_arrivals`]). `None` for an empty arrival set (a
/// 1-node fork/join epoch).
fn critical_arrival(arrivals: &[crate::state::Arrival]) -> Option<u64> {
    arrivals
        .iter()
        .max_by(|a, b| {
            a.at.partial_cmp(&b.at)
                .expect("virtual times are never NaN")
                .then(a.msg.src.cmp(&b.msg.src))
        })
        .map(|a| a.seq)
}

/// Componentwise minimum of the arrivals' vector clocks (optionally
/// including `extra` — the master's own clock at a fork, since the
/// master sends no arrival). This is the HLRC home-copy pruning
/// piggyback: every interval at or below the minimum has been
/// integrated by every participant, and the departure that carries the
/// minimum also carries every interval the receiver still lacked — so
/// by the time a receiver prunes, the bound is valid locally too.
/// Under LRC there are no home copies to prune, so the piggyback is
/// omitted (empty) rather than padding every departure with n words.
fn min_arrival_vc(
    arrivals: &[crate::state::Arrival],
    extra: Option<&crate::vc::Vc>,
    n: usize,
    protocol: ProtocolMode,
) -> Vec<u32> {
    if protocol != ProtocolMode::Hlrc {
        return Vec::new();
    }
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

/// Pushes announced in `arrivals` for destination `dst`.
fn pushes_to(arrivals: &[crate::state::Arrival], dst: usize) -> u64 {
    arrivals.iter().map(|a| a.msg.push_counts()[dst]).sum()
}

/// Check whether `epoch` has everything it needs, and serve it.
fn try_complete_epoch(ep: &Endpoint, st: &mut DsmState, epoch: u64) {
    let n = st.n;
    let me = ep.id();
    let manager_us = ep.cost().manager_us;
    let entry = match st.epochs.get(&epoch) {
        Some(e) => e,
        None => return,
    };
    let arrived = entry.arrivals.len();
    let is_barrier = epoch & protocol::BARRIER_EPOCH_BIT != 0;

    if is_barrier {
        if arrived < n {
            return;
        }
        // Integrate everyone's intervals, then issue departures.
        let mut entry = st.epochs.remove(&epoch).expect("checked above");
        sort_arrivals(&mut entry.arrivals);
        let crit_seq = critical_arrival(&entry.arrivals).expect("n >= 1 arrivals");
        let max_at = entry
            .arrivals
            .iter()
            .map(|a| a.at)
            .fold(VTime::ZERO, VTime::max);
        let dep_time = max_at + n as f64 * manager_us;
        st.integrate_arrivals(&entry.arrivals);
        let e16 = (epoch & 0xFFFF) as u32;
        let min_vc = min_arrival_vc(&entry.arrivals, None, n, st.cfg.protocol);
        for a in &entry.arrivals {
            let src = a.msg.src;
            let intervals = st.intervals_since(a.msg.vc());
            let expected_push = pushes_to(&entry.arrivals, src);
            let payload =
                protocol::encode_departure(epoch, 0, expected_push, &[], intervals, &min_vc);
            let kind = if src == me {
                MsgKind::Control
            } else {
                MsgKind::BarrierDepart
            };
            let out_seq = ep.send_at(
                src,
                Port::App,
                tag::BARRIER_DEP | e16,
                kind,
                payload,
                dep_time,
            );
            ep.trace_edge(EdgeKind::BarrierRelease, out_seq, crit_seq, max_at);
        }
        return;
    }

    // Fork-join epoch: workers are `n - 1`; master interacts via
    // MASTER_JOIN (all-to-one) and MASTER_FORK (one-to-all).
    if arrived < n - 1 {
        return;
    }
    let max_at = entry
        .arrivals
        .iter()
        .map(|a| a.at)
        .fold(VTime::ZERO, VTime::max);
    let crit_seq = critical_arrival(&entry.arrivals);
    let e16 = (epoch & 0xFFFF) as u32;

    let joined = entry.joined && !entry.join_served;
    let join_vt = entry.join_vt;
    let join_seq = entry.join_seq;
    if joined {
        // The arrivals leave the epoch for the moment the state is
        // borrowed whole; the fork below integrates them again, which
        // changes nothing.
        let entry = st.epochs.get_mut(&epoch).expect("epoch exists");
        let arrivals = std::mem::take(&mut entry.arrivals);
        st.integrate_arrivals(&arrivals);
        let min_vc = min_arrival_vc(&arrivals, Some(&st.vc), n, st.cfg.protocol);
        let dep_time = max_at.max(join_vt) + (n as f64 - 1.0) * manager_us;
        let mut w = sp2sim::WordWriter::with_capacity(3 + min_vc.len());
        w.put(epoch).put(pushes_to(&arrivals, me));
        protocol::encode_vc_words(&mut w, &min_vc);
        let payload = w.finish();
        let entry = st.epochs.get_mut(&epoch).expect("epoch exists");
        entry.arrivals = arrivals;
        entry.join_served = true;
        let out_seq = ep.send_at(
            me,
            Port::App,
            tag::JOIN_DEP | e16,
            MsgKind::Control,
            payload,
            dep_time,
        );
        // The join completes when the last worker arrival is in, or when
        // the master's own MASTER_JOIN lands — whichever is later.
        let cause = if join_vt > max_at {
            join_seq
        } else {
            crit_seq.unwrap_or(join_seq)
        };
        ep.trace_edge(EdgeKind::Join, out_seq, cause, max_at.max(join_vt));
    }

    let entry = st.epochs.get(&epoch).expect("epoch exists");
    if entry.fork_msg.is_some() {
        let fork_vt = entry.fork_vt;
        let fork_seq = entry.fork_seq;
        let mut entry = st.epochs.remove(&epoch).expect("epoch exists");
        sort_arrivals(&mut entry.arrivals);
        st.integrate_arrivals(&entry.arrivals);
        // The fork, read where it landed (behind the opcode and the
        // epoch). The master's own pushes ride it and are expected by
        // the workers along with their peers' arrival-time pushes.
        let fork = entry.fork_msg.take().expect("checked above");
        let mut r = WordReader::new(&fork[2..]);
        let flag_bits = r.get();
        let fork_push = r.take(n);
        let ctl_words = r.get_words();
        let min_vc = min_arrival_vc(&entry.arrivals, Some(&st.vc), n, st.cfg.protocol);
        let dep_time = max_at.max(fork_vt) + (n as f64 - 1.0) * manager_us;
        // A fork departure waits on the master's MASTER_FORK and on the
        // workers having arrived in the previous epoch.
        let cause = if fork_vt > max_at {
            fork_seq
        } else {
            crit_seq.unwrap_or(fork_seq)
        };
        for a in &entry.arrivals {
            let payload = protocol::encode_departure(
                epoch,
                flag_bits,
                pushes_to(&entry.arrivals, a.msg.src) + fork_push[a.msg.src],
                ctl_words,
                st.intervals_since(a.msg.vc()),
                &min_vc,
            );
            let out_seq = ep.send_at(
                a.msg.src,
                Port::App,
                tag::FORK_DEP | e16,
                MsgKind::BarrierDepart,
                payload,
                dep_time,
            );
            ep.trace_edge(EdgeKind::Fork, out_seq, cause, max_at.max(fork_vt));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TmkConfig;
    use sp2sim::{Cluster, ClusterConfig, EngineKind};

    /// A malformed request must end the service loop through the logged
    /// error path (not a panic), observable as `service_errors == 1` and
    /// a joinable service context — on every schedule.
    #[test]
    fn unknown_opcode_shuts_down_gracefully() {
        for engine in EngineKind::explore(8) {
            let out = Cluster::run(ClusterConfig::sp2_on(1, engine), |node| {
                let state = DsmState::new(0, 1, TmkConfig::default());
                let state = Rc::new(StateCell::new(node, state));
                let ep = node.take_service_endpoint();
                let svc_state = Rc::clone(&state);
                let h = node.spawn_service(move || service_loop(ep, svc_state));
                node.endpoint().send_to_port(
                    0,
                    Port::Service,
                    0,
                    MsgKind::Control,
                    vec![0xBAAD_F00D],
                );
                // Joins only because the loop exits on the bad opcode.
                node.join_service(h);
                let errors = state.lock().stats.service_errors;
                errors
            });
            assert_eq!(out.results[0], 1, "engine {engine}");
        }
    }
}
