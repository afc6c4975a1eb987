//! The protocol service loop.
//!
//! One service loop runs per node — a fiber of its own beside the
//! application's — playing the role of TreadMarks' SIGIO-driven request
//! handlers: it participates in the distributed lock protocol, combines
//! reductions, (on the manager node) collects barrier arrivals and
//! issues departures, and hands every other request to the coherence
//! protocol's *serve* hook ([`crate::coherence`]). It shares the node's [`DsmState`] with the
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

/// Run the service loop until a `SHUTDOWN` opcode or cluster teardown.
///
/// A malformed request (unknown opcode) must not abort a whole
/// parameter sweep: it is logged, counted in
/// [`DsmStats::service_errors`](crate::DsmStats), and the loop shuts
/// down gracefully — subsequent remote requests to this node will stall
/// their senders, but the local application, and every other
/// simulation of the sweep, keeps running.
pub fn service_loop(ep: Endpoint, state: Rc<StateCell<DsmState>>, protocol: ProtocolMode) {
    while let Some(pkt) = ep.recv_any_raw() {
        let arrival = pkt.arrival;
        if pkt.tag & tag::BASE == tag::PUSH_TREE {
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
            op::BARRIER_ARRIVE | op::WORKER_ARRIVE => {
                handle_arrival(&ep, &state, pkt.payload, arrival, seq)
            }
            op::MASTER_FORK => handle_master_fork(&ep, &state, pkt.payload, arrival, seq),
            op::MASTER_JOIN => handle_master_join(&ep, &state, &mut r, arrival, seq),
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
                     ({words} payload words); shutting the service loop down",
                    ep.id(),
                );
                let mut st = state.lock();
                st.stats.service_errors += 1;
                st.stats.last_bad_opcode.get_or_insert(other);
                break;
            }
        }
    }
}

/// Serve pages private here from the working frame, and end the privacy.
fn handle_owner_fetch(ep: &Endpoint, state: &StateCell<DsmState>, pkt: Packet) {
    let mut r = WordReader::new(&pkt.payload);
    let (_, req_id, k) = (r.get(), r.get() as u32, r.get_count(1));
    let mut st = state.lock();
    let mut w = WordWriter::with_capacity(protocol::page_resp_words(k, st.n, st.cfg.page_words));
    w.put(0);
    for p in r.take(k).iter().map(|&p| p as usize) {
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
/// at its rendezvous with the pushes it was told to expect. Nothing here
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
        // held *now*, in this section of the state cell — the self-grant is
        // an asynchronous upcall, and until the application consumes it a
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
    payload: Payload,
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
    entry.arrivals.push(Arrival {
        msg,
        at: arrival,
        seq,
    });
    try_complete_epoch(ep, &mut st, epoch);
}

fn handle_master_fork(
    ep: &Endpoint,
    state: &StateCell<DsmState>,
    payload: Payload,
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

/// The order of epoch arrivals: by (virtual arrival time, node id).
fn arrival_order(a: &Arrival, b: &Arrival) -> std::cmp::Ordering {
    let by_time = a.at.partial_cmp(&b.at);
    (by_time.expect("virtual times are never NaN")).then(a.msg.src.cmp(&b.msg.src))
}

/// Order epoch arrivals before the departures are serialized through
/// the manager's link. The order in which the service loop happened to
/// process the arrivals is the schedule's; sorting makes the departure
/// sequence — and with it each node's departure time — a pure function
/// of virtual time, which keeps results schedule-independent wherever
/// virtual arrival times themselves are.
fn sort_arrivals(arrivals: &mut [Arrival]) {
    arrivals.sort_by(arrival_order);
}

/// The correlation id of the *critical* arrival: the one the epoch's
/// completion time waits on (the last in [`arrival_order`]). `None` for
/// an empty arrival set (a 1-node fork/join epoch).
fn critical_arrival(arrivals: &[Arrival]) -> Option<u64> {
    arrivals
        .iter()
        .max_by(|a, b| arrival_order(a, b))
        .map(|a| a.seq)
}

/// Pushes announced in `arrivals` for destination `dst`.
fn pushes_to(arrivals: &[Arrival], dst: usize) -> u64 {
    arrivals.iter().map(|a| a.msg.push_counts()[dst]).sum()
}

/// Check whether `epoch` has everything it needs, and serve it.
fn try_complete_epoch(ep: &Endpoint, st: &mut DsmState, epoch: u64) {
    let n = st.n;
    let me = ep.id();
    let manager_us = ep.cost().manager_us;
    let protocol = st.cfg.protocol;
    let entry = match st.epochs.get(&epoch) {
        Some(e) => e,
        None => return,
    };
    // A barrier gathers every node; a fork-join epoch the `n - 1` workers,
    // the master taking part via MASTER_JOIN and MASTER_FORK.
    let is_barrier = epoch & protocol::BARRIER_EPOCH_BIT != 0;
    let arriving = if is_barrier { n } else { n - 1 };
    if entry.arrivals.len() < arriving {
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
        st.integrate_arrivals(&arrivals, ep.cost());
        let floor = protocol.rendezvous_floor(&arrivals, Some(&st.vc), n);
        let dep_time = max_at.max(join_vt) + (n as f64 - 1.0) * manager_us;
        let mut w = sp2sim::WordWriter::with_capacity(3 + floor.len());
        w.put(epoch).put(pushes_to(&arrivals, me));
        protocol::encode_vc_words(&mut w, &floor);
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
    if !is_barrier && entry.fork_msg.is_none() {
        return;
    }
    // The departures, a barrier's or a fork's: integrate everyone's
    // intervals, then tell each arrival what it has not seen.
    let mut entry = st.epochs.remove(&epoch).expect("epoch exists");
    sort_arrivals(&mut entry.arrivals);
    st.integrate_arrivals(&entry.arrivals, ep.cost());
    // A fork is read where it landed (behind the opcode and the epoch).
    // The master's own pushes ride it, expected by the workers beside
    // their peers'; its clock joins the floor, as it sends no arrival.
    let fork = entry.fork_msg.take();
    let (flag_bits, fork_push, ctl_words, master_vc) = match &fork {
        Some(fork) => {
            let mut r = WordReader::new(&fork[2..]);
            (r.get(), r.take(n), r.get_words(), Some(&st.vc))
        }
        None => (0, &[][..], &[][..], None),
    };
    let floor = protocol.rendezvous_floor(&entry.arrivals, master_vc, n);
    // A barrier departure waits on the last arrival; a fork departure
    // on the master's MASTER_FORK and on the workers having arrived in
    // the previous epoch.
    let (dep_tag, edge, ready, cause) = if is_barrier {
        let cause = crit_seq.expect("n >= 1 arrivals");
        (tag::BARRIER_DEP, EdgeKind::BarrierRelease, max_at, cause)
    } else {
        let cause = if entry.fork_vt > max_at {
            entry.fork_seq
        } else {
            crit_seq.unwrap_or(entry.fork_seq)
        };
        let ready = max_at.max(entry.fork_vt);
        (tag::FORK_DEP, EdgeKind::Fork, ready, cause)
    };
    let dep_time = ready + arriving as f64 * manager_us;
    for a in &entry.arrivals {
        let src = a.msg.src;
        let payload = protocol::encode_departure(
            epoch,
            flag_bits,
            pushes_to(&entry.arrivals, src) + fork_push.get(src).copied().unwrap_or(0),
            ctl_words,
            st.intervals_since(a.msg.vc()),
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
