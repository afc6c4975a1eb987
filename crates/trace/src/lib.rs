//! Virtual-time event tracing: the typed event model and the per-track
//! ring buffer the simulator records into.
//!
//! This crate sits *below* `sp2sim` in the dependency graph and knows
//! nothing about the simulator: events carry numeric message-kind and
//! opcode codes, not the simulator's own enums, so the layering stays
//! acyclic. `sp2sim` owns the recording hooks (one [`TraceBuf`] per
//! endpoint, single-writer, no locks on the hot path), `harness` owns
//! the analysis and the Chrome/Perfetto export.
//!
//! Two clocks stamp every event:
//!
//! * `vt_us` — the owning endpoint's *virtual* clock at the moment of
//!   recording, in microseconds. On an app endpoint this is monotone
//!   non-decreasing; on a service endpoint it acts as a link clock and
//!   may jump backwards between requests from different peers.
//! * `host_ns` — host wall time in nanoseconds since the run started.
//!   Purely diagnostic; deterministic comparisons must scrub it (see
//!   [`Event::scrubbed`]).
//!
//! Recording never advances a virtual clock and never sends a message,
//! so a traced run is bit-identical to an untraced one in every
//! simulated observable.

#![forbid(unsafe_code)]

/// Maximum events a traced run retains per track (per endpoint). When a
/// track overflows, the *oldest* events are overwritten and
/// [`TrackTrace::dropped`] counts the loss; analyzers must refuse to
/// claim exact breakdowns over a lossy track. Generous: a full Jacobi
/// run at harness scales records a few hundred thousand events per
/// node, and the buffer grows on demand (amortized doubling, no
/// per-event allocation) up to this cap.
pub const RING_CAPACITY: usize = 1 << 20;

/// Which of a node's two endpoints a track belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TracePort {
    /// The application thread: the node's main virtual clock.
    App = 0,
    /// The protocol service loop (interrupt-style request handler).
    Service = 1,
}

impl TracePort {
    pub fn label(self) -> &'static str {
        match self {
            TracePort::App => "app",
            TracePort::Service => "service",
        }
    }
}

/// Span kinds recorded by the runtime layers. Every kind maps to one
/// [`Category`] for the paper's Figure-2-style time breakdown.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// An SPF loop body (arg = loop id). The only kind in the Compute
    /// category: everything outside explicit spans is *uncovered*
    /// remainder, which the analyzer reports separately.
    Compute,
    /// Blocked in a barrier (manager round trip + release wait).
    BarrierWait,
    /// Worker parked between fork-join phases waiting for a fork.
    ForkWait,
    /// Master waiting for workers' join messages.
    JoinWait,
    /// Blocked acquiring a lock token.
    LockWait,
    /// Blocked receiving reduction contributions.
    ReduceWait,
    /// Blocked in a plain message-passing receive (`mpl`).
    RecvWait,
    /// Receiving pushed pages/diffs at a sync point.
    PushRecv,
    /// Page-fault handling on the app thread (twin/diff fetch+apply).
    Fault,
    /// Applying a diff (nested under Fault/PushRecv/Validate).
    DiffApply,
    /// CRI validate (hinted pre-loop fetch).
    Validate,
    /// Publishing writes at a release (twin→diff, HLRC home flush).
    Publish,
    /// Eagerly pushing diffs/pages at a sync point.
    PushSend,
    /// HLRC fetching pages from their homes.
    HomeFetch,
    /// Inspector/executor inspection walk (arg = loop id).
    Inspect,
}

impl SpanKind {
    pub const ALL: [SpanKind; 15] = [
        SpanKind::Compute,
        SpanKind::BarrierWait,
        SpanKind::ForkWait,
        SpanKind::JoinWait,
        SpanKind::LockWait,
        SpanKind::ReduceWait,
        SpanKind::RecvWait,
        SpanKind::PushRecv,
        SpanKind::Fault,
        SpanKind::DiffApply,
        SpanKind::Validate,
        SpanKind::Publish,
        SpanKind::PushSend,
        SpanKind::HomeFetch,
        SpanKind::Inspect,
    ];

    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Compute => "compute",
            SpanKind::BarrierWait => "barrier-wait",
            SpanKind::ForkWait => "fork-wait",
            SpanKind::JoinWait => "join-wait",
            SpanKind::LockWait => "lock-wait",
            SpanKind::ReduceWait => "reduce-wait",
            SpanKind::RecvWait => "recv-wait",
            SpanKind::PushRecv => "push-recv",
            SpanKind::Fault => "fault",
            SpanKind::DiffApply => "diff-apply",
            SpanKind::Validate => "validate",
            SpanKind::Publish => "publish",
            SpanKind::PushSend => "push-send",
            SpanKind::HomeFetch => "home-fetch",
            SpanKind::Inspect => "inspect",
        }
    }

    /// The breakdown category this span's *self time* is charged to.
    pub fn category(self) -> Category {
        match self {
            SpanKind::Compute => Category::Compute,
            SpanKind::BarrierWait
            | SpanKind::ForkWait
            | SpanKind::JoinWait
            | SpanKind::LockWait
            | SpanKind::ReduceWait
            | SpanKind::RecvWait
            | SpanKind::PushRecv => Category::Wait,
            SpanKind::Fault
            | SpanKind::DiffApply
            | SpanKind::Validate
            | SpanKind::Publish
            | SpanKind::PushSend
            | SpanKind::HomeFetch
            | SpanKind::Inspect => Category::Service,
        }
    }
}

/// The four-way time attribution of the paper's Figure 2: computation,
/// synchronization wait, protocol service on the app's critical path,
/// and wire occupancy of sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Category {
    Compute,
    Wait,
    Service,
    Wire,
}

impl Category {
    pub const ALL: [Category; 4] = [
        Category::Compute,
        Category::Wait,
        Category::Service,
        Category::Wire,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::Wait => "wait",
            Category::Service => "service",
            Category::Wire => "wire",
        }
    }
}

/// The causal role of an [`EventKind::Edge`] event — why a service-side
/// (or self-delivered) message was sent. Purely diagnostic labels for
/// the critical-path analyzer; the graph structure lives in the seq ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EdgeKind {
    /// A request/response pair (diff, validate, page, reduce hops).
    Response,
    /// A lock grant: the request (or the holder's release) enabled it.
    LockHandoff,
    /// A barrier departure: the last arrival released everyone.
    BarrierRelease,
    /// A fork departure: the master's fork (or the last worker arrival)
    /// dispatched the epoch.
    Fork,
    /// The join upcall to the master: the last worker arrival (or the
    /// master's own join call) completed the epoch.
    Join,
}

impl EdgeKind {
    pub const ALL: [EdgeKind; 5] = [
        EdgeKind::Response,
        EdgeKind::LockHandoff,
        EdgeKind::BarrierRelease,
        EdgeKind::Fork,
        EdgeKind::Join,
    ];

    pub fn label(self) -> &'static str {
        match self {
            EdgeKind::Response => "response",
            EdgeKind::LockHandoff => "lock-handoff",
            EdgeKind::BarrierRelease => "barrier-release",
            EdgeKind::Fork => "fork",
            EdgeKind::Join => "join",
        }
    }
}

/// What happened. Message kinds and service opcodes are carried as the
/// simulator's numeric discriminants (`code`, `op`) so this crate needs
/// no upward dependency; the exporter maps them back to labels.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EventKind {
    /// A span opens. `arg` is kind-specific (loop id, lock id, barrier
    /// id, …); zero when unused.
    Begin { kind: SpanKind, arg: u32 },
    /// The innermost open span of `kind` closes.
    End { kind: SpanKind },
    /// A cross-node message left this endpoint. `wire_us` is the
    /// occupancy charged to the sender's clock — the Wire category debit
    /// of the enclosing span. `seq` is the packet's correlation id
    /// (unique per run, sender endpoint encoded in the top bits); the
    /// matching consume carries the same id in its `Recv` event.
    Send {
        code: u8,
        bytes: u32,
        peer: u16,
        wire_us: f64,
        seq: u64,
    },
    /// A message was consumed by a blocking receive (stamped after the
    /// clock advanced to arrival + receive overhead). `seq` matches the
    /// packet's `Send` event (self-delivered packets have a seq but no
    /// `Send` event); `wait_us` is how long the consumer's clock had to
    /// jump forward to the packet's arrival — positive iff the receive
    /// actually blocked, i.e. iff the message is on the consumer's
    /// critical path.
    Recv {
        code: u8,
        bytes: u32,
        peer: u16,
        seq: u64,
        wait_us: f64,
    },
    /// A protocol service loop dispatched a request (service track
    /// only). `dur_us` is the nominal per-request service cost.
    Service { op: u32, dur_us: f64 },
    /// An epoch boundary: all spans of epoch `index` have ended by the
    /// time this instant is recorded.
    Epoch { index: u32 },
    /// A causal edge: packet `out_seq` (sent from this node, usually by
    /// its service loop) was enabled by packet `cause_seq`, and
    /// `vt_us` is the virtual time of the enabling moment (request
    /// arrival, release time, last barrier arrival). `cause_seq == 0`
    /// means the cause was local: the node's own application track at
    /// `vt_us` (e.g. a lock grant gated by the holder's release).
    Edge {
        kind: EdgeKind,
        out_seq: u64,
        cause_seq: u64,
    },
}

/// One recorded event. `Copy`, no heap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Event {
    /// Owning endpoint's virtual clock, microseconds.
    pub vt_us: f64,
    /// Host wall time since run start, nanoseconds. Nondeterministic.
    pub host_ns: u64,
    pub kind: EventKind,
}

impl Event {
    /// The event with its nondeterministic host timestamp zeroed —
    /// what determinism tests compare.
    pub fn scrubbed(self) -> Event {
        Event { host_ns: 0, ..self }
    }
}

/// A bounded single-writer event ring. Grows by amortized doubling up
/// to `capacity`, then wraps, overwriting the oldest events and
/// counting them in `dropped`.
#[derive(Debug)]
pub struct TraceBuf {
    events: Vec<Event>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl TraceBuf {
    pub fn new(capacity: usize) -> TraceBuf {
        let capacity = capacity.max(2);
        TraceBuf {
            // Modest initial reservation; doubling takes over from here.
            events: Vec::with_capacity(capacity.min(1024)),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    #[inline]
    pub fn push(&mut self, e: Event) {
        if self.events.len() < self.capacity {
            self.events.push(e);
        } else {
            self.events[self.head] = e;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
            self.dropped += 1;
        }
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain into chronological order (oldest retained event first).
    pub fn into_events(mut self) -> (Vec<Event>, u64) {
        self.events.rotate_left(self.head);
        (self.events, self.dropped)
    }
}

/// The finished event stream of one endpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct TrackTrace {
    pub node: u32,
    pub port: TracePort,
    /// Chronological (recording order; `vt_us` is monotone only on
    /// [`TracePort::App`] tracks).
    pub events: Vec<Event>,
    /// Events lost to ring overflow (oldest-first). Zero means the
    /// stream is complete.
    pub dropped: u64,
}

/// Everything a traced run produced: one track per endpoint plus each
/// node's final virtual clock (the denominator of the breakdown).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceData {
    /// Sorted by `(node, port)`.
    pub tracks: Vec<TrackTrace>,
    /// `final_us[node]` = that node's app clock at the end of the run.
    pub final_us: Vec<f64>,
}

impl TraceData {
    pub fn sort_tracks(&mut self) {
        self.tracks.sort_by_key(|t| (t.node, t.port));
    }

    pub fn track(&self, node: u32, port: TracePort) -> Option<&TrackTrace> {
        self.tracks
            .iter()
            .find(|t| t.node == node && t.port == port)
    }

    /// Total events across all tracks.
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(vt: f64, kind: EventKind) -> Event {
        Event {
            vt_us: vt,
            host_ns: 7,
            kind,
        }
    }

    #[test]
    fn ring_keeps_newest_and_counts_drops() {
        let mut b = TraceBuf::new(4);
        for i in 0..6 {
            b.push(ev(i as f64, EventKind::Epoch { index: i }));
        }
        let (events, dropped) = b.into_events();
        assert_eq!(dropped, 2);
        let vts: Vec<f64> = events.iter().map(|e| e.vt_us).collect();
        assert_eq!(vts, vec![2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn ring_without_overflow_is_lossless_in_order() {
        let mut b = TraceBuf::new(16);
        for i in 0..5 {
            b.push(ev(i as f64, EventKind::Epoch { index: i }));
        }
        assert_eq!(b.dropped(), 0);
        let (events, dropped) = b.into_events();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 5);
        assert!(events.windows(2).all(|w| w[0].vt_us < w[1].vt_us));
    }

    #[test]
    fn scrub_zeroes_only_host_time() {
        let e = ev(
            3.5,
            EventKind::End {
                kind: SpanKind::Fault,
            },
        );
        let s = e.scrubbed();
        assert_eq!(s.host_ns, 0);
        assert_eq!(s.vt_us, e.vt_us);
        assert_eq!(s.kind, e.kind);
    }

    #[test]
    fn every_span_kind_has_a_category_and_label() {
        for k in SpanKind::ALL {
            assert!(!k.label().is_empty());
            let _ = k.category();
        }
        for c in Category::ALL {
            assert!(!c.label().is_empty());
        }
        for e in EdgeKind::ALL {
            assert!(!e.label().is_empty());
        }
    }
}
