//! The protocol service loop.
//!
//! One service loop runs per node — a fiber of its own beside the
//! application's — playing the role of TreadMarks' SIGIO-driven request
//! handlers: it participates in the distributed lock protocol, combines
//! reductions, and hands every other request to the coherence
//! protocol's *serve* hook ([`crate::coherence`]). On the manager node
//! (node 0) it runs every rendezvous: one step files each rendezvous
//! message — a barrier or worker arrival, the master's fork or join —
//! in its epoch, and an epoch, once it has what it needs, is served:
//! its arrivals integrated, once, then the master's join reply and the
//! departures, each when its turn comes. It shares the node's [`DsmState`] with the
//! application through a [`StateCell`] and never blocks on remote
//! operations, which makes the protocol deadlock-free by construction.
//!
//! Virtual-time model: a response becomes available at
//! `request arrival + service cost` — the service processor is modelled as
//! interrupt-driven and not contended, which is also why the resulting
//! virtual times are deterministic.

use std::rc::Rc;

use sp2sim::{
    EdgeKind, Endpoint, MsgKind, Packet, Payload, Port, ReduceOp, StateCell, Tree, VTime,
    WordReader, WordWriter,
};

use crate::config::ProtocolMode;
use crate::diff::Landed;
use crate::protocol::{self, op, tag};
use crate::state::{Arrival, DsmState};
use crate::vc::Vc;

/// Run the service loop until a `SHUTDOWN` opcode or cluster teardown.
///
/// A malformed request (unknown opcode) must not abort a whole
/// parameter sweep: it is logged, counted in
/// [`DsmStats::service_errors`](crate::DsmStats), and the loop stops
/// serving: it takes and drops every later message until the shutdown,
/// so subsequent remote requests to this node stall their senders, but
/// the local application, and every other simulation of the sweep,
/// keeps running — and no message is left queued at the end of the run.
pub fn service_loop(ep: Endpoint, state: Rc<StateCell<DsmState>>, protocol: ProtocolMode) {
    while let Some(pkt) = ep.recv_any_raw() {
        let arrival = pkt.arrival;
        if matches!(pkt.tag & tag::BASE, tag::PUSH_TREE | tag::LINK_PUSH) {
            if ep.tracing() {
                ep.trace_service(op::PUSH_TREE as u32, arrival, ep.cost().service_us);
            }
            forward_push(&ep, pkt, arrival);
            continue;
        }
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
            op::REDUCE_PART => handle_reduce_part(&ep, &state, &mut r, arrival, seq),
            op::LOCK_REQ => handle_lock_req(&ep, &state, &mut r, arrival, seq),
            // An arrival and a fork are kept where they landed (the
            // interval log is windows onto the first, the second waits for
            // the workers): the payload is handed over by value.
            op::BARRIER_ARRIVE | op::WORKER_ARRIVE | op::MASTER_FORK | op::MASTER_JOIN => {
                file_rendezvous(&ep, &state, opcode, pkt.payload, arrival, seq)
            }
            op::OWNER_FETCH => handle_owner_fetch(&ep, &state, pkt),
            op::SHUTDOWN => break,
            // The coherence protocol's, or nobody's — a request of the
            // protocol this cluster does not run included.
            other => {
                let (src, words) = (pkt.src, pkt.payload.len());
                if protocol.serve(&ep, &state, other, pkt.payload, arrival, seq) {
                    continue;
                }
                eprintln!(
                    "treadmarks[{}]: unknown service opcode {other:#x} from node {src} \
                     ({words} payload words); serving nothing more until the shutdown",
                    ep.id(),
                );
                let mut st = state.lock();
                st.stats.service_errors += 1;
                st.stats.last_bad_opcode.get_or_insert(other);
                drop(st);
                let shutdown = |p: &Packet| p.tag == 0 && p.payload.first() == Some(&op::SHUTDOWN);
                while ep.recv_any_raw().is_some_and(|p| !shutdown(&p)) {}
                break;
            }
        }
    }
}

/// Serve pages private here from the working frame, and end the privacy.
fn handle_owner_fetch(ep: &Endpoint, state: &StateCell<DsmState>, pkt: Packet) {
    let mut r = WordReader::new(&pkt.payload);
    r.get();
    let (req_id, pages) = protocol::decode_owner_fetch(&mut r);
    let mut st = state.lock();
    let words = protocol::page_resp_words(pages.len(), st.n, st.cfg.page_words);
    let mut w = WordWriter::with_capacity(words);
    w.put(0);
    for p in pages.iter().map(|&p| p as usize) {
        assert!(
            !st.holes.contains_key(&p),
            "private page {p} has holes: a meet push reached its owner"
        );
        if let (Some(applied), Some(data)) = (st.frames.applied(p), st.frames.data(p)) {
            protocol::encode_page_entry(&mut w, p, applied, data);
            w.set(0, w.words()[0] + 1);
        }
        st.end_owned(p);
    }
    drop(st);
    let t = tag::PAGE_RESP | (req_id & 0xFFFF);
    let at = pkt.arrival + ep.cost().service_us;
    let out = ep.send_at(pkt.src, Port::App, t, MsgKind::PageResp, w.finish(), at);
    ep.trace_edge(EdgeKind::Response, out, pkt.seq, pkt.arrival);
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
    let op = ReduceOp::from_code(op_code);
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
    op: ReduceOp,
    total: &[f64],
    ready: VTime,
    edge: Option<(u64, VTime)>,
) {
    let me = ep.id();
    let out_seq = match Tree::new(me, ep.nprocs(), 0).parent() {
        // Self-delivery: a local upcall, free and uncounted.
        None => ep.send_at(
            me,
            Port::App,
            tag::REDUCE_DONE | (seq & 0xFFFF),
            MsgKind::Control,
            protocol::encode_reduce_vals(total),
            ready,
        ),
        Some(parent) => ep.send_at(
            parent,
            Port::Service,
            0,
            MsgKind::ReducePart,
            protocol::encode_reduce_part(seq, me, op.code(), total),
            ready,
        ),
    };
    if let Some((cause_seq, at)) = edge {
        ep.trace_edge(EdgeKind::Response, out_seq, cause_seq, at);
    }
}

/// A push travelling down the binomial tree rooted at its pusher (the
/// tag's low bits): pass the one payload on to this node's children, to
/// their services, and up to this node's application, which consumes it
/// at its rendezvous with the pushes it was told to expect (a link push:
/// before its next loop body, [`crate::Tmk::take_link_push`]). Nothing here
/// waits on the application, so the push moves on while this node is
/// still waiting for its own departure.
fn forward_push(ep: &Endpoint, pkt: Packet, arrival: VTime) {
    let (me, root) = (ep.id(), (pkt.tag & !tag::BASE) as usize);
    let ready = arrival + ep.cost().service_us;
    let edges = Tree::new(me, ep.nprocs(), root)
        .children()
        .map(|c| (c, Port::Service));
    for (dst, port) in edges.chain([(me, Port::App)]) {
        let payload = pkt.payload.clone();
        let out_seq = ep.send_at(dst, port, pkt.tag, MsgKind::Push, payload, ready);
        ep.trace_edge(EdgeKind::Response, out_seq, pkt.seq, arrival);
    }
}

/// A lock request, at its manager or at the node the manager directed it
/// to. The manager redirects the lock's chain to the requester and
/// forwards the request to the node the previous request was directed
/// to, unless that is this node: then it is the holder side too.
///
/// Token discipline (deadlock freedom): if the token is here and the
/// application is not holding the lock, the request is granted
/// immediately — even if our own re-acquire is chasing the token through
/// the chain, because the manager serialized that request after this one.
/// Only a node that truly holds the lock, or that is itself waiting for
/// the token to arrive, queues the request for its next release.
fn handle_lock_req(
    ep: &Endpoint,
    state: &StateCell<DsmState>,
    r: &mut WordReader,
    arrival: VTime,
    seq: u64,
) {
    let (me, n) = (ep.id(), ep.nprocs());
    let (lock, requester, vc) = protocol::decode_lock_req(r, n);
    let ready = arrival + ep.cost().manager_us;
    let mut st = state.lock();
    if lock as usize % n == me {
        let owner = st.redirect(lock, requester);
        if owner != me {
            // Forward to the (possibly future) holder — still under the
            // state lock, so that forwards and the manager application's
            // own requests (`Tmk::acquire`) leave in the order the
            // directory entry serialized them.
            let fwd = protocol::encode_lock_req(lock, requester, &vc);
            let out_seq = ep.send_at(owner, Port::Service, 0, MsgKind::LockFwd, fwd, ready);
            ep.trace_edge(EdgeKind::LockHandoff, out_seq, seq, arrival);
            return;
        }
    }
    let lk = st.lock_entry(lock);
    let release_vt = lk.release_vt;
    let at = ready.max(release_vt);
    let (kind, grant, send) = if requester == me {
        // Our own request chased the chain back to us (we kept the
        // token): grant locally, no further message. The lock is marked
        // held *now*, in this section of the state cell — the self-grant is
        // an asynchronous upcall, and until the application consumes it a
        // concurrently arriving remote request would otherwise observe
        // `has_token && !held` and steal the token, putting two nodes in
        // the critical section at once (a lost-update race).
        debug_assert!(lk.has_token, "self-directed request implies token");
        lk.held = true;
        lk.prof.record_rest();
        let empty = protocol::encode_lock_grant(std::iter::empty());
        (MsgKind::Control, empty, at)
    } else if lk.held || !lk.has_token {
        lk.queue.push_back((requester, vc));
        return;
    } else {
        // Token present, lock free: hand the token over.
        let grant = st.grant(lock, &vc);
        (MsgKind::LockGrant, grant, at + ep.cost().service_us)
    };
    let t = tag::LOCK_GRANT | lock;
    let out_seq = ep.send_at(requester, Port::App, t, kind, grant, send);
    // A grant gated by our own last release (`release_vt > ready`) is
    // causally local; otherwise the request itself is the cause.
    let cause = if release_vt > ready { 0 } else { seq };
    ep.trace_edge(EdgeKind::LockHandoff, out_seq, cause, at);
}

/// File a rendezvous message — a barrier or worker arrival, the
/// master's fork or its join — in its epoch, word 1 of all three, and
/// serve what the epoch now has. An arrival's intervals are NOT
/// integrated here: the manager's application fiber may still be
/// computing in the previous epoch and must not observe future write
/// notices. They stay in the message, which the epoch keeps, and are
/// integrated when the epoch is first served, while the local
/// application is blocked in the rendezvous.
fn file_rendezvous(
    ep: &Endpoint,
    state: &StateCell<DsmState>,
    opcode: u64,
    payload: Payload,
    at: VTime,
    seq: u64,
) {
    let epoch = payload[1];
    let mut st = state.lock();
    let n = st.n;
    let entry = st.epochs.entry(epoch).or_default();
    match opcode {
        op::MASTER_FORK => entry.fork = Some((payload, at, seq)),
        op::MASTER_JOIN => entry.join = Some((at, seq)),
        _ => {
            let msg = protocol::decode_arrival(Landed::new(payload), n);
            entry.arrivals.push(Arrival { msg, at, seq });
        }
    }
    try_complete_epoch(ep, &mut st, epoch);
}

/// The order of epoch arrivals: by (virtual arrival time, node id).
fn arrival_order(a: &Arrival, b: &Arrival) -> std::cmp::Ordering {
    let by_time = a.at.partial_cmp(&b.at);
    (by_time.expect("virtual times are never NaN")).then(a.msg.src.cmp(&b.msg.src))
}

/// Pushes announced in `arrivals` for destination `dst`.
fn pushes_to(arrivals: &[Arrival], dst: usize) -> u64 {
    arrivals.iter().map(|a| a.msg.push_counts()[dst]).sum()
}

/// Check whether `epoch` has everything it needs, and serve it: the
/// master's join once the workers are in, the departures once the
/// master's fork is too — a barrier's once every node is in.
fn try_complete_epoch(ep: &Endpoint, st: &mut DsmState, epoch: u64) {
    let (n, me, protocol) = (st.n, ep.id(), st.cfg.protocol);
    let manager_us = ep.cost().manager_us;
    // A barrier gathers every node; a fork-join epoch the `n - 1` workers,
    // the master taking part via MASTER_JOIN and MASTER_FORK.
    let is_barrier = epoch & protocol::BARRIER_EPOCH_BIT != 0;
    let arriving = if is_barrier { n } else { n - 1 };
    let entry = &st.epochs[&epoch];
    let join = entry.join.filter(|_| !entry.join_served);
    let departs = is_barrier || entry.fork.is_some();
    if entry.arrivals.len() < arriving || join.is_none() && !departs {
        return;
    }
    let mut entry = st.epochs.remove(&epoch).expect("filed");
    if !entry.join_served {
        // Served for the first time: integrate everyone's intervals,
        // once. The arrivals leave the order the service loop happened
        // to take them in — the schedule's — for (virtual arrival time,
        // node id): the departures are serialized through the manager's
        // link in that order, which makes each node's departure time a
        // pure function of virtual time wherever the arrival times are.
        entry.arrivals.sort_by(arrival_order);
        st.integrate_arrivals(&entry.arrivals, ep.cost());
    }
    // The last arrival is the critical one, which the epoch's completion
    // waits on (none in a 1-node fork-join epoch) — unless the master's
    // join or fork lands later.
    let last = entry.arrivals.last().map(|a| (a.at, a.seq));
    let waits_on = |(at, seq): (VTime, u64)| match last {
        Some((max_at, crit)) if max_at >= at => (max_at, crit),
        _ => (at, seq),
    };
    let e16 = (epoch & 0xFFFF) as u32;
    if let Some(join) = join {
        let floor = protocol.rendezvous_floor(&entry.arrivals, Some(&st.vc), n);
        let mut w = WordWriter::with_capacity(3 + floor.len());
        w.put(epoch).put(pushes_to(&entry.arrivals, me));
        protocol::encode_vc_words(&mut w, &floor);
        let (ready, cause) = waits_on(join);
        let dep_time = ready + (n as f64 - 1.0) * manager_us;
        let t = tag::JOIN_DEP | e16;
        let out_seq = ep.send_at(me, Port::App, t, MsgKind::Control, w.finish(), dep_time);
        ep.trace_edge(EdgeKind::Join, out_seq, cause, ready);
        entry.join_served = true;
    }
    if !departs {
        st.epochs.insert(epoch, entry);
        return;
    }
    // The departures, a barrier's or a fork's: tell each arrival what it
    // has not seen. A fork is read where it landed. The master's own
    // pushes ride it, expected by the workers beside their peers'. Its
    // departures announce what happened before it — the master's clock
    // as it forked and the workers' as they arrived — and never the
    // interval the master's body may have published since; that clock
    // joins the floor, as the master sends no arrival.
    let fork = entry
        .fork
        .as_ref()
        .map(|(f, at, seq)| (protocol::decode_fork(f, n), *at, *seq));
    let before = fork.as_ref().map(|(f, ..)| {
        let mut clock: Vc = f.clock.iter().map(|&x| x as u32).collect();
        for a in &entry.arrivals {
            for (c, x) in clock.iter_mut().zip(a.msg.vc()) {
                *c = (*c).max(x);
            }
        }
        clock
    });
    let (flag_bits, fork_push, ctl_words) = match &fork {
        Some((f, ..)) => (f.flag_bits, f.push_counts, f.ctl),
        None => (0, &[][..], &[][..]),
    };
    let floor = protocol.rendezvous_floor(&entry.arrivals, before.as_ref(), n);
    let upto = before.as_deref().unwrap_or(&st.vc);
    // A barrier departure waits on the last arrival; a fork departure
    // on the master's MASTER_FORK too.
    let (dep_tag, edge, (ready, cause)) = match &fork {
        Some((_, at, seq)) => (tag::FORK_DEP, EdgeKind::Fork, waits_on((*at, *seq))),
        None => {
            let last = last.expect("n >= 1 arrivals");
            (tag::BARRIER_DEP, EdgeKind::BarrierRelease, last)
        }
    };
    let dep_time = ready + arriving as f64 * manager_us;
    for a in &entry.arrivals {
        let src = a.msg.src;
        let payload = protocol::encode_departure(
            epoch,
            flag_bits,
            pushes_to(&entry.arrivals, src) + fork_push.get(src).copied().unwrap_or(0),
            ctl_words,
            st.intervals_since(a.msg.vc(), upto),
            &floor,
        );
        let kind = if src == me {
            MsgKind::Control
        } else {
            MsgKind::BarrierDepart
        };
        let out_seq = ep.send_at(src, Port::App, dep_tag | e16, kind, payload, dep_time);
        ep.trace_edge(edge, out_seq, cause, ready);
    }
}
