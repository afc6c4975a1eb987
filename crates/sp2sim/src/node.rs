//! Node endpoints: per-node handles for sending/receiving packets and
//! advancing virtual time.
//!
//! All transport, scheduling and synchronization goes through the
//! engine (see [`crate::engine`]). An endpoint owns only what is
//! private to its consumer — the virtual clock and the buffer of
//! received-but-unmatched packets. Handles share the engine through an
//! `Rc`, so none of them can leave the OS thread that runs the cluster.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::ops::Deref;
use std::rc::Rc;
use std::time::Instant;

use trace::{EdgeKind, Event, EventKind, SpanKind, TraceBuf, TracePort, TrackTrace};

use crate::cost::CostModel;
use crate::engine::sequential::Engine;
use crate::engine::ServiceHandle;
use crate::packet::{Packet, Payload, Port};
use crate::stats::{MsgKind, NetStats};
use crate::time::VTime;

/// Per-endpoint trace recorder: a private single-writer ring plus the
/// run's wall-clock origin. Present only when the engine traces.
struct Tracer {
    buf: RefCell<TraceBuf>,
    start: Instant,
}

/// One side of the simulated network attached to a node: either the
/// application port or the service port. An endpoint owns a private virtual
/// clock; sends stamp arrival times from it and receives advance it.
pub struct Endpoint {
    id: usize,
    n: usize,
    port: Port,
    clock: Cell<f64>,
    pending: RefCell<VecDeque<Packet>>,
    /// The engine carrying this endpoint (what a [`crate::StateCell`]
    /// parks and preempts fibers through).
    pub(crate) engine: Rc<Engine>,
    tracer: Option<Tracer>,
    /// Packets sent from this endpoint so far — the low bits of the
    /// correlation ids it stamps (see [`Packet::seq`]).
    sent: Cell<u64>,
}

impl Endpoint {
    pub(crate) fn new(id: usize, n: usize, port: Port, engine: Rc<Engine>) -> Endpoint {
        let tracer = engine.trace.as_ref().map(|ts| Tracer {
            buf: RefCell::new(TraceBuf::new(trace::RING_CAPACITY)),
            start: ts.start,
        });
        Endpoint {
            id,
            n,
            port,
            clock: Cell::new(0.0),
            pending: RefCell::new(VecDeque::new()),
            engine,
            tracer,
            sent: Cell::new(0),
        }
    }

    /// The next correlation id: sending endpoint in the top bits, a
    /// 1-based counter in the low 40. Zero is never a valid id (the
    /// trace layer reserves it as the "local cause" sentinel), and the
    /// counter order is this endpoint's program order, so ids are
    /// deterministic wherever the send order is.
    fn next_seq(&self) -> u64 {
        let c = self.sent.get() + 1;
        self.sent.set(c);
        let endpoint = self.id as u64 * 2
            + match self.port {
                Port::App => 0,
                Port::Service => 1,
            };
        (endpoint << 40) | c
    }

    /// Whether this endpoint records a trace. Callers may use this to
    /// skip argument preparation for hook calls; the hooks themselves
    /// are no-ops when tracing is off.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Record an event at virtual time `vt_us` (cold path; the `None`
    /// check inlines into callers).
    fn trace_record(&self, vt_us: f64, kind: EventKind) {
        if let Some(t) = &self.tracer {
            let host_ns = t.start.elapsed().as_nanos() as u64;
            t.buf.borrow_mut().push(Event {
                vt_us,
                host_ns,
                kind,
            });
        }
    }

    /// Open a span of `kind` at the current virtual time.
    #[inline]
    pub fn trace_begin(&self, kind: SpanKind, arg: u32) {
        if self.tracer.is_some() {
            self.trace_record(self.clock.get(), EventKind::Begin { kind, arg });
        }
    }

    /// Close the innermost open span of `kind`.
    #[inline]
    pub fn trace_end(&self, kind: SpanKind) {
        if self.tracer.is_some() {
            self.trace_record(self.clock.get(), EventKind::End { kind });
        }
    }

    /// Mark an epoch boundary: every span belonging to epoch `index`
    /// has already ended.
    #[inline]
    pub fn trace_epoch(&self, index: u32) {
        if self.tracer.is_some() {
            self.trace_record(self.clock.get(), EventKind::Epoch { index });
        }
    }

    /// Record a service-loop request dispatch (service endpoints only).
    #[inline]
    pub fn trace_service(&self, op: u32, at: VTime, dur_us: f64) {
        if self.tracer.is_some() {
            self.trace_record(at.us(), EventKind::Service { op, dur_us });
        }
    }

    /// Record a happens-before edge: the outgoing packet `out_seq` is
    /// causally anchored at `at`, and (when `cause_seq != 0`) was
    /// triggered by the incoming packet `cause_seq`. `cause_seq == 0`
    /// means the cause is local to this node at `at`.
    #[inline]
    pub fn trace_edge(&self, kind: EdgeKind, out_seq: u64, cause_seq: u64, at: VTime) {
        if self.tracer.is_some() {
            self.trace_record(
                at.us(),
                EventKind::Edge {
                    kind,
                    out_seq,
                    cause_seq,
                },
            );
        }
    }

    /// This node's id in `0..nprocs`.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of nodes in the cluster.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.n
    }

    /// Current virtual time of this endpoint.
    #[inline]
    pub fn now(&self) -> VTime {
        VTime(self.clock.get())
    }

    /// Advance the clock by `us` microseconds of local computation.
    #[inline]
    pub fn advance(&self, us: f64) {
        debug_assert!(us >= 0.0);
        self.clock.set(self.clock.get() + us);
    }

    /// Move the clock forward to `t` if `t` is later.
    #[inline]
    pub fn advance_to(&self, t: VTime) {
        if t.0 > self.clock.get() {
            self.clock.set(t.0);
        }
    }

    /// The cluster cost model.
    #[inline]
    pub fn cost(&self) -> &CostModel {
        &self.engine.cost
    }

    /// The cluster-wide statistics.
    #[inline]
    pub fn stats(&self) -> &NetStats {
        &self.engine.stats
    }

    /// Send a packet to `dst`'s `port`, stamping the arrival time from this
    /// endpoint's clock: [`Endpoint::send_at`] at [`Endpoint::now`]. The
    /// sender's clock advances by the message occupancy (fixed overhead
    /// plus per-byte serialization through the node's network
    /// interface), so back-to-back sends serialize. Messages a node sends
    /// to itself are local upcalls: free and not counted. Returns the
    /// packet's correlation id.
    pub fn send_to_port(
        &self,
        dst: usize,
        port: Port,
        tag: u32,
        kind: MsgKind,
        payload: impl Into<Payload>,
    ) -> u64 {
        self.send_at(dst, port, tag, kind, payload, self.now())
    }

    /// Send with an explicit time base. Used by service threads: the
    /// response becomes ready at `at` (request arrival plus service cost)
    /// and is then serialized through this endpoint's link — the
    /// endpoint's clock acts as the link clock, so concurrent responses
    /// from one node queue behind each other, but an idle link resets to
    /// the ready time. Returns the packet's correlation id.
    pub fn send_at(
        &self,
        dst: usize,
        port: Port,
        tag: u32,
        kind: MsgKind,
        payload: impl Into<Payload>,
        at: VTime,
    ) -> u64 {
        let payload = payload.into();
        let seq = self.next_seq();
        let arrival = if dst == self.id {
            at
        } else {
            let bytes = payload.len() * 8;
            self.engine.stats.record(kind, bytes);
            let t0 = at.max(self.now());
            let occ = self.engine.cost.occupancy_us(bytes);
            if self.tracer.is_some() {
                self.trace_record(
                    t0.us(),
                    EventKind::Send {
                        code: kind as u8,
                        bytes: bytes as u32,
                        peer: dst as u16,
                        wire_us: occ,
                        seq,
                    },
                );
            }
            let done = t0 + occ;
            self.clock.set(done.us());
            done + self.engine.cost.latency_us
        };
        self.deliver(dst, port, tag, kind, payload, arrival, seq);
        seq
    }

    #[allow(clippy::too_many_arguments)]
    fn deliver(
        &self,
        dst: usize,
        port: Port,
        tag: u32,
        kind: MsgKind,
        payload: Payload,
        arrival: VTime,
        seq: u64,
    ) {
        let pkt = Packet {
            src: self.id,
            seq,
            tag,
            kind,
            arrival,
            payload,
        };
        // The packet is stamped; when it joins `dst`'s queue relative
        // to other senders' packets is the schedule's to decide.
        self.engine.preempt();
        self.engine.deliver(dst, port, pkt);
    }

    /// Shorthand for [`Endpoint::send_to_port`] to the application port.
    pub fn send(&self, dst: usize, tag: u32, kind: MsgKind, payload: impl Into<Payload>) -> u64 {
        self.send_to_port(dst, Port::App, tag, kind, payload)
    }

    /// Blocking receive of the first packet matching `pred` (in arrival
    /// order at this endpoint). Non-matching packets are buffered and
    /// returned to later receives. Consuming a packet charges the receive
    /// overhead and moves the clock to at least the packet's arrival time.
    pub fn recv_match(&self, pred: impl Fn(&Packet) -> bool) -> Packet {
        let pkt = self.wait_match(pred);
        let before = self.clock.get();
        self.advance_to(pkt.arrival);
        self.advance(self.engine.cost.recv_overhead_us);
        if self.tracer.is_some() {
            self.trace_record(
                self.clock.get(),
                EventKind::Recv {
                    code: pkt.kind as u8,
                    bytes: (pkt.payload.len() * 8) as u32,
                    peer: pkt.src as u16,
                    seq: pkt.seq,
                    wait_us: (pkt.arrival.us() - before).max(0.0),
                },
            );
        }
        pkt
    }

    /// Receive any next packet without clock accounting, or `None` when the
    /// cluster is tearing down (all senders dropped).
    pub fn recv_any_raw(&self) -> Option<Packet> {
        if let Some(p) = self.pending.borrow_mut().pop_front() {
            return Some(p);
        }
        self.engine.recv(self.id, self.port)
    }

    fn wait_match(&self, pred: impl Fn(&Packet) -> bool) -> Packet {
        {
            let mut pending = self.pending.borrow_mut();
            if let Some(i) = pending.iter().position(&pred) {
                return pending.remove(i).expect("index valid");
            }
        }
        loop {
            let pkt = self
                .engine
                .recv(self.id, self.port)
                .expect("cluster torn down while a receive was outstanding");
            if pred(&pkt) {
                return pkt;
            }
            self.pending.borrow_mut().push_back(pkt);
        }
    }

    /// Receive the next packet with `tag` from `src`.
    pub fn recv_from(&self, src: usize, tag: u32) -> Packet {
        self.recv_match(|p| p.src == src && p.tag == tag)
    }

    /// Open a span and return a guard that closes it on drop — the
    /// convenient way to bracket a region with early returns. A no-op
    /// (cheap) when tracing is off.
    #[inline]
    pub fn trace_span(&self, kind: SpanKind, arg: u32) -> TraceSpanGuard<'_> {
        self.trace_begin(kind, arg);
        TraceSpanGuard { ep: self, kind }
    }

    pub(crate) fn record_final_clock(&self) {
        self.engine.record_final(self.id, self.now());
    }
}

/// Guard returned by [`Endpoint::trace_span`]:
/// records the span's `End` event when dropped.
pub struct TraceSpanGuard<'a> {
    ep: &'a Endpoint,
    kind: SpanKind,
}

impl Drop for TraceSpanGuard<'_> {
    fn drop(&mut self) {
        self.ep.trace_end(self.kind);
    }
}

impl Drop for Endpoint {
    /// Hand the finished event stream to the engine. Every endpoint
    /// drops before the engine assembles its run output (node
    /// endpoints at the end of the node body, service endpoints when
    /// their service loop returns — which `Tmk` joins before its own
    /// node body ends), so the sink is complete by collection time.
    ///
    /// Packets it received but never matched go back to the engine's
    /// queue, where the end-of-run check finds them (debug builds).
    fn drop(&mut self) {
        if cfg!(debug_assertions) {
            self.engine
                .requeue(self.id, self.port, self.pending.get_mut());
        }
        if let (Some(t), Some(ts)) = (self.tracer.take(), self.engine.trace.as_ref()) {
            let (events, dropped) = t.buf.into_inner().into_events();
            ts.sink.borrow_mut().push(TrackTrace {
                node: self.id as u32,
                port: match self.port {
                    Port::App => TracePort::App,
                    Port::Service => TracePort::Service,
                },
                events,
                dropped,
            });
        }
    }
}

/// The handle given to each simulated node's application closure: the
/// node's application-port [`Endpoint`] (it derefs to it, so `send`,
/// `recv_from`, `now` and the trace hooks are the endpoint's) plus the
/// service slot — the service-port endpoint the DSM layer claims with
/// [`Node::take_service_endpoint`], the engine's service executor, the
/// run's host slots and a wall-clock rendezvous used only by the
/// measurement harness.
pub struct Node {
    ep: Endpoint,
    service: RefCell<Option<Endpoint>>,
}

impl Deref for Node {
    type Target = Endpoint;

    #[inline]
    fn deref(&self) -> &Endpoint {
        &self.ep
    }
}

impl Node {
    pub(crate) fn new(id: usize, n: usize, engine: Rc<Engine>) -> Node {
        Node {
            ep: Endpoint::new(id, n, Port::App, Rc::clone(&engine)),
            service: RefCell::new(Some(Endpoint::new(id, n, Port::Service, engine))),
        }
    }

    /// The run's one host value of type `T`: the first call, from any
    /// node, makes it with `init`; every node of this
    /// [`crate::Cluster::run`] gets the same one after that, and it drops
    /// with the cluster. It lives on the host, beside the simulated
    /// machine, so it is held to one rule: a node may learn nothing from
    /// it that it would not compute itself. Hold in it pure derivations
    /// — functions of inputs fixed for the run, which every node would
    /// reach alike — or entries that one node alone reads and writes;
    /// a value that carried one node's state to another would be
    /// communication no message paid for.
    pub fn cluster_slot<T: Any>(&self, init: impl FnOnce() -> T) -> Rc<T> {
        let slots = &self.ep.engine.slots;
        let found = slots
            .borrow()
            .iter()
            .find_map(|s| Rc::clone(s).downcast().ok());
        found.unwrap_or_else(|| {
            let made = Rc::new(init());
            slots.borrow_mut().push(Rc::clone(&made) as Rc<dyn Any>);
            made
        })
    }

    /// Claim the service-port endpoint (once). The DSM layer hands it to
    /// its service loop; message-passing programs never touch it.
    pub fn take_service_endpoint(&self) -> Endpoint {
        self.service
            .borrow_mut()
            .take()
            .expect("service endpoint already taken")
    }

    /// Run `f` concurrently with this node's application code, as a
    /// fiber of its own. The DSM layer runs its protocol service loop
    /// this way. Join with [`Node::join_service`].
    pub fn spawn_service(&self, f: impl FnOnce() + 'static) -> ServiceHandle {
        self.ep.engine.spawn_service(Box::new(f))
    }

    /// Wait for a spawned service context to finish; panics if it
    /// panicked (like joining a thread).
    pub fn join_service(&self, h: ServiceHandle) {
        self.ep.engine.join_service(h)
    }

    /// Wall-clock rendezvous of **all** node contexts. This is
    /// measurement infrastructure (not part of the simulated machine):
    /// the harness uses it to take consistent statistics snapshots at the
    /// boundaries of the timed region, mirroring the paper's exclusion of
    /// startup iterations.
    pub fn rendezvous(&self) {
        self.ep.engine.rendezvous();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterConfig};
    use crate::engine::EngineKind;

    fn cfg(n: usize) -> ClusterConfig {
        ClusterConfig::sp2(n)
    }

    #[test]
    fn send_advances_sender_clock() {
        let out = Cluster::run(cfg(2), |node| {
            if node.id() == 0 {
                node.send(1, 1, MsgKind::Data, vec![42]);
                node.now().us()
            } else {
                let p = node.recv_from(0, 1);
                assert_eq!(*p.payload, [42]);
                node.now().us()
            }
        });
        let c = CostModel::sp2();
        assert!((out.results[0] - c.occupancy_us(8)).abs() < 1e-9);
        // Receiver: arrival (occupancy + latency) + recv overhead.
        let expect = c.occupancy_us(8) + c.latency_us + c.recv_overhead_us;
        assert!((out.results[1] - expect).abs() < 1e-9);
    }

    #[test]
    fn self_send_is_free_and_uncounted() {
        let out = Cluster::run(cfg(1), |node| {
            node.send(0, 3, MsgKind::Data, vec![1, 2]);
            let p = node.recv_from(0, 3);
            assert_eq!(*p.payload, [1, 2]);
            node.now().us()
        });
        // Receive overhead is still charged, but no send/transit cost.
        assert!((out.results[0] - CostModel::sp2().recv_overhead_us).abs() < 1e-9);
        assert_eq!(out.stats.total_messages(), 0);
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        for engine in EngineKind::explore(8) {
            let out = Cluster::run(cfg(2).with_engine(engine), |node| {
                if node.id() == 0 {
                    node.send(1, 10, MsgKind::Data, vec![10]);
                    node.send(1, 20, MsgKind::Data, vec![20]);
                    0
                } else {
                    // Receive tag 20 first even though tag 10 arrives first.
                    let b = node.recv_from(0, 20).payload[0];
                    let a = node.recv_from(0, 10).payload[0];
                    (b * 100 + a) as i64
                }
            });
            assert_eq!(out.results[1], 2010, "engine {engine}");
        }
    }

    #[test]
    fn clock_never_goes_backwards_on_recv() {
        let out = Cluster::run(cfg(2), |node| {
            if node.id() == 0 {
                node.send(1, 1, MsgKind::Data, vec![1]);
                0.0
            } else {
                node.advance(1_000_000.0); // receiver far ahead
                let before = node.now().us();
                node.recv_from(0, 1);
                node.now().us() - before
            }
        });
        // Only the receive overhead is charged; arrival is in the past.
        assert!((out.results[1] - CostModel::sp2().recv_overhead_us).abs() < 1e-9);
    }
}
