//! Causal critical-path analysis over virtual-time event traces.
//!
//! The trace layer stamps every cross-node packet with a correlation id
//! (`seq`): the consumer records it in its `Recv` event, the producer in
//! its `Send` event, and service loops record `Edge` events tying each
//! reply they send to the request (or release, or last barrier arrival)
//! that enabled it. Together those form the run's cross-node
//! happens-before DAG, and the *critical path* — the longest dependence
//! chain ending at the cluster's final virtual time — can be recovered
//! by a backward walk:
//!
//! 1. start on the app track of the node with the largest final clock;
//! 2. scan backward for the latest receive that actually *blocked*
//!    (`wait_us > 0` — a receive that didn't block is not a constraint);
//!    everything in between is local execution, attributed to the
//!    innermost open span;
//! 3. hop to the message's producer via its `seq`: an app-track send
//!    continues the walk on the sender's app track; a service-track
//!    send follows that packet's `Edge` to the enabling moment and then
//!    its `cause_seq` (another packet, or `0` for a local cause on the
//!    same node's app track);
//! 4. repeat until virtual time zero.
//!
//! Every segment boundary is a *recorded event time*, so consecutive
//! segments telescope exactly and the path length (`start_us − end_us`)
//! equals the cluster's maximum final virtual clock **bitwise** on the
//! deterministic sequential engine — the falsifiable identity pinned by
//! `tests/critical_path.rs`. The walk flags anything that would break
//! the identity: non-contiguous segments, unresolved correlation ids,
//! or lossy (ring-overflowed) tracks.

use std::collections::HashMap;

use sp2sim::{seq_sender, Category, EventKind, SpanKind, TraceData, TracePort, TrackTrace};

/// What one critical-path segment was doing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SegmentKind {
    /// App-track time outside any span (sequential code, unhinted
    /// kernels). Charged to [`Category::Compute`].
    Uncovered,
    /// App-track time inside an explicit span (innermost wins).
    Span(SpanKind),
    /// App-track send occupancy (the sender's clock advancing while the
    /// packet is put on the wire).
    SendBusy,
    /// Service-side handling and gating: from the enabling moment (the
    /// `Edge` anchor) to the reply's send.
    Service,
    /// Message flight from the producer's send to the consumer's
    /// post-receive stamp (latency + receive overhead). `from` is the
    /// producing node.
    Wire { code: u8, from: u32 },
}

impl SegmentKind {
    pub fn category(self) -> Category {
        match self {
            SegmentKind::Uncovered => Category::Compute,
            SegmentKind::Span(k) => k.category(),
            SegmentKind::SendBusy | SegmentKind::Wire { .. } => Category::Wire,
            SegmentKind::Service => Category::Service,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            SegmentKind::Uncovered => "uncovered",
            SegmentKind::Span(k) => k.label(),
            SegmentKind::SendBusy => "send",
            SegmentKind::Service => "service",
            SegmentKind::Wire { .. } => "wire",
        }
    }
}

/// One maximal stretch of the critical path with a single attribution.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    pub lo_us: f64,
    pub hi_us: f64,
    /// The node whose timeline the segment lies on (the *receiver* for
    /// wire segments).
    pub node: u32,
    /// Epoch bin on that node (count of epoch markers before `hi_us`).
    pub epoch: u32,
    pub kind: SegmentKind,
}

impl Segment {
    pub fn dur_us(&self) -> f64 {
        self.hi_us - self.lo_us
    }
}

/// The reconstructed critical path plus its exactness flags.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalPath {
    /// The node whose final clock the path ends at.
    pub start_node: u32,
    /// The cluster's maximum final virtual clock (path end, forward
    /// time).
    pub start_us: f64,
    /// Where the backward walk terminated — `0.0` when complete.
    pub end_us: f64,
    /// Segments in forward time order; consecutive segments share
    /// boundaries exactly when `contiguous`.
    pub segments: Vec<Segment>,
    /// Every segment boundary telescoped bitwise.
    pub contiguous: bool,
    /// Correlation ids the walk could not resolve to a recorded send,
    /// edge, or same-node self-delivery. Zero on the sequential engine.
    pub unresolved: u64,
    /// Some track overflowed its ring buffer; the walk saw partial data.
    pub lossy: bool,
    /// Per-node slack: `start_us − final_us[node]` — how much later the
    /// node could have finished without moving the cluster's end time.
    pub slack_us: Vec<f64>,
}

impl CriticalPath {
    /// Path length. Equals `start_us` exactly when [`Self::exact`].
    pub fn length_us(&self) -> f64 {
        self.start_us - self.end_us
    }

    /// The falsifiable identity: the walk reached virtual time zero
    /// through bitwise-telescoping segments with every id resolved and
    /// no trace loss, so `length_us() == max final clock` exactly.
    pub fn exact(&self) -> bool {
        self.contiguous && self.unresolved == 0 && !self.lossy && self.end_us == 0.0
    }

    /// Path time per category, in [`Category::ALL`] order.
    pub fn by_category(&self) -> [(Category, f64); 4] {
        let mut out = Category::ALL.map(|c| (c, 0.0));
        for s in &self.segments {
            let i = Category::ALL
                .iter()
                .position(|&c| c == s.kind.category())
                .unwrap();
            out[i].1 += s.dur_us();
        }
        out
    }

    /// Share of the path *not* spent computing: the fraction bounded by
    /// messaging, protocol service, and synchronization rather than the
    /// application's own work.
    pub fn wait_share(&self) -> f64 {
        let len = self.length_us();
        if len <= 0.0 {
            return 0.0;
        }
        let compute = self.by_category()[0].1;
        ((len - compute) / len).clamp(0.0, 1.0)
    }

    /// Path time per `(node, epoch)`, descending.
    pub fn by_node_epoch(&self) -> Vec<((u32, u32), f64)> {
        self.tally(|s| Some((s.node, s.epoch)))
    }

    /// Wire time per message kind code, descending.
    pub fn by_message(&self) -> Vec<(u8, f64)> {
        self.tally(|s| match s.kind {
            SegmentKind::Wire { code, .. } => Some(code),
            _ => None,
        })
    }

    /// Path time per segment label (span kind, "service", "wire", …),
    /// descending — the analyzer's "top contributors" view.
    pub fn by_label(&self) -> Vec<(&'static str, f64)> {
        self.tally(|s| Some(s.kind.label()))
    }

    /// Path time per key of the segments `key` names, summed in path
    /// order, descending by time with ties broken by key.
    fn tally<K: Ord>(&self, key: impl Fn(&Segment) -> Option<K>) -> Vec<(K, f64)> {
        let mut acc: Vec<(K, f64)> = Vec::new();
        for s in &self.segments {
            let Some(k) = key(s) else { continue };
            match acc.iter_mut().find(|(a, _)| *a == k) {
                Some((_, v)) => *v += s.dur_us(),
                None => acc.push((k, s.dur_us())),
            }
        }
        acc.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        acc
    }
}

/// What the app track looked like over time: the innermost attribution
/// as a piecewise-constant timeline, plus the epoch marker times.
struct AppInfo {
    track: Option<usize>,
    timeline: Vec<(f64, SegmentKind)>,
    epoch_marks: Vec<f64>,
}

impl AppInfo {
    fn empty() -> Self {
        AppInfo {
            track: None,
            timeline: vec![(0.0, SegmentKind::Uncovered)],
            epoch_marks: Vec::new(),
        }
    }

    fn from_track(idx: usize, t: &TrackTrace) -> Self {
        let mut timeline = vec![(0.0, SegmentKind::Uncovered)];
        let mut epoch_marks = Vec::new();
        let mut stack: Vec<SpanKind> = Vec::new();
        let top = |stack: &Vec<SpanKind>| {
            stack
                .last()
                .map(|&k| SegmentKind::Span(k))
                .unwrap_or(SegmentKind::Uncovered)
        };
        for e in &t.events {
            match e.kind {
                EventKind::Begin { kind, .. } => {
                    stack.push(kind);
                    timeline.push((e.vt_us, SegmentKind::Span(kind)));
                }
                EventKind::End { kind } => {
                    if let Some(i) = stack.iter().rposition(|&k| k == kind) {
                        stack.remove(i);
                    }
                    timeline.push((e.vt_us, top(&stack)));
                }
                EventKind::Send { wire_us, .. } => {
                    timeline.push((e.vt_us, SegmentKind::SendBusy));
                    timeline.push((e.vt_us + wire_us, top(&stack)));
                }
                EventKind::Epoch { .. } => epoch_marks.push(e.vt_us),
                _ => {}
            }
        }
        AppInfo {
            track: Some(idx),
            timeline,
            epoch_marks,
        }
    }

    /// Epoch bin of time `t`: markers strictly before `t` (a span
    /// ending exactly at a marker still belongs to the closing epoch).
    fn epoch_of(&self, t: f64) -> u32 {
        self.epoch_marks.partition_point(|&m| m < t) as u32
    }
}

/// Walk state: either consuming local app-track time backward from
/// (`cnt` events considered, time `t`), or resolving who produced
/// packet `seq` that node `rnode` consumed at time `rt`.
enum Step {
    Local {
        node: u32,
        cnt: usize,
        t: f64,
    },
    Resolve {
        seq: u64,
        rt: f64,
        rnode: u32,
        hint: Option<usize>,
    },
}

struct Walker<'a> {
    data: &'a TraceData,
    apps: Vec<AppInfo>,
    send_index: HashMap<u64, (usize, usize)>,
    edge_index: HashMap<u64, (usize, usize)>,
    segments: Vec<Segment>,
    last_lo: f64,
    contiguous: bool,
    unresolved: u64,
}

impl<'a> Walker<'a> {
    fn push(&mut self, seg: Segment) {
        if seg.hi_us != self.last_lo || seg.lo_us > seg.hi_us {
            self.contiguous = false;
        }
        self.last_lo = seg.lo_us;
        if seg.hi_us > seg.lo_us {
            self.segments.push(seg);
        }
    }

    /// Number of app-track events of `node` at virtual time <= `t`.
    fn cnt_at(&self, node: u32, t: f64) -> usize {
        match self.apps[node as usize].track {
            Some(ti) => self.data.tracks[ti]
                .events
                .partition_point(|e| e.vt_us <= t),
            None => 0,
        }
    }

    /// Emit the local stretch `[lo, hi]` on `node`'s app track, split
    /// by the innermost-span timeline so each piece has one attribution.
    fn emit_local(&mut self, node: u32, lo: f64, hi: f64) {
        if hi <= lo {
            if hi < lo {
                self.contiguous = false;
            }
            return;
        }
        let info = &self.apps[node as usize];
        // Cell i covers [timeline[i].0, timeline[i+1].0).
        let mut i = info.timeline.partition_point(|&(s, _)| s < hi);
        let mut cur_hi = hi;
        let mut pending: Vec<Segment> = Vec::new();
        while cur_hi > lo {
            let ci = i.saturating_sub(1);
            let (cs, kind) = info.timeline[ci];
            let seg_lo = cs.max(lo);
            pending.push(Segment {
                lo_us: seg_lo,
                hi_us: cur_hi,
                node,
                epoch: info.epoch_of(cur_hi),
                kind,
            });
            cur_hi = seg_lo;
            if ci == 0 {
                break;
            }
            i = ci;
        }
        for seg in pending {
            self.push(seg);
        }
    }

    /// One step of the backward walk. Returns the next step, or `None`
    /// when virtual time zero was reached.
    fn step(&mut self, s: Step) -> Option<Step> {
        match s {
            Step::Local { node, cnt, t } => {
                let Some(ti) = self.apps[node as usize].track else {
                    self.emit_local(node, 0.0, t);
                    return None;
                };
                let events = &self.data.tracks[ti].events;
                let mut found = None;
                for j in (0..cnt.min(events.len())).rev() {
                    if let EventKind::Recv { seq, wait_us, .. } = events[j].kind {
                        if wait_us > 0.0 {
                            found = Some((j, seq, events[j].vt_us));
                            break;
                        }
                    }
                }
                match found {
                    None => {
                        self.emit_local(node, 0.0, t);
                        None
                    }
                    Some((j, seq, rv)) => {
                        self.emit_local(node, rv, t);
                        Some(Step::Resolve {
                            seq,
                            rt: rv,
                            rnode: node,
                            hint: Some(j),
                        })
                    }
                }
            }
            Step::Resolve {
                seq,
                rt,
                rnode,
                hint,
            } => {
                if let Some(&(ti, ei)) = self.send_index.get(&seq) {
                    let st = &self.data.tracks[ti];
                    let (svt, code) = match st.events[ei].kind {
                        EventKind::Send { code, .. } => (st.events[ei].vt_us, code),
                        _ => unreachable!("send_index points at Send events"),
                    };
                    let (snode, sport) = (st.node, st.port);
                    let epoch = self.apps[rnode as usize].epoch_of(rt);
                    self.push(Segment {
                        lo_us: svt,
                        hi_us: rt,
                        node: rnode,
                        epoch,
                        kind: SegmentKind::Wire { code, from: snode },
                    });
                    if sport == TracePort::App {
                        return Some(Step::Local {
                            node: snode,
                            cnt: ei,
                            t: svt,
                        });
                    }
                    // Service-track send: follow its causal edge back to
                    // the enabling moment.
                    return Some(match self.edge_index.get(&seq) {
                        Some(&(eti, eei)) => {
                            let ev = &self.data.tracks[eti].events[eei];
                            let (a, cause) = match ev.kind {
                                EventKind::Edge { cause_seq, .. } => (ev.vt_us, cause_seq),
                                _ => unreachable!("edge_index points at Edge events"),
                            };
                            let epoch = self.apps[snode as usize].epoch_of(svt);
                            self.push(Segment {
                                lo_us: a,
                                hi_us: svt,
                                node: snode,
                                epoch,
                                kind: SegmentKind::Service,
                            });
                            self.follow_cause(cause, snode, a)
                        }
                        None => {
                            self.unresolved += 1;
                            Step::Local {
                                node: snode,
                                cnt: self.cnt_at(snode, svt),
                                t: svt,
                            }
                        }
                    });
                }
                if let Some(&(eti, eei)) = self.edge_index.get(&seq) {
                    // Self-delivered packet (no Send event) with an
                    // edge: a service upcall to the node's own app
                    // thread (reduce roots, self lock grants, barrier
                    // and join departures to the manager node).
                    let en = self.data.tracks[eti].node;
                    let ev = &self.data.tracks[eti].events[eei];
                    let (a, cause) = match ev.kind {
                        EventKind::Edge { cause_seq, .. } => (ev.vt_us, cause_seq),
                        _ => unreachable!("edge_index points at Edge events"),
                    };
                    let epoch = self.apps[en as usize].epoch_of(rt);
                    self.push(Segment {
                        lo_us: a,
                        hi_us: rt,
                        node: en,
                        epoch,
                        kind: SegmentKind::Service,
                    });
                    return Some(self.follow_cause(cause, en, a));
                }
                // No Send event and no Edge: decode the producer from
                // the id. A same-node endpoint means an app-level
                // self-delivery (causally local); anything else is a
                // hole in the trace.
                let (snode, _) = seq_sender(seq);
                if snode == rnode as usize {
                    let cnt = hint.unwrap_or_else(|| self.cnt_at(rnode, rt));
                    return Some(Step::Local {
                        node: rnode,
                        cnt,
                        t: rt,
                    });
                }
                self.unresolved += 1;
                Some(Step::Local {
                    node: snode as u32,
                    cnt: self.cnt_at(snode as u32, rt),
                    t: rt,
                })
            }
        }
    }

    fn follow_cause(&mut self, cause: u64, node: u32, anchor: f64) -> Step {
        if cause == 0 {
            // Local cause: continue on the same node's app track at the
            // enabling moment.
            Step::Local {
                node,
                cnt: self.cnt_at(node, anchor),
                t: anchor,
            }
        } else {
            Step::Resolve {
                seq: cause,
                rt: anchor,
                rnode: node,
                hint: None,
            }
        }
    }
}

/// Reconstruct the critical path of a traced run. Returns `None` for an
/// empty trace (no nodes or no final clocks).
pub fn compute(data: &TraceData) -> Option<CriticalPath> {
    if data.final_us.is_empty() || data.tracks.is_empty() {
        return None;
    }
    let n = data.final_us.len();
    let mut apps: Vec<AppInfo> = (0..n).map(|_| AppInfo::empty()).collect();
    let mut send_index = HashMap::new();
    let mut edge_index = HashMap::new();
    for (ti, t) in data.tracks.iter().enumerate() {
        if t.port == TracePort::App {
            if let Some(slot) = apps.get_mut(t.node as usize) {
                *slot = AppInfo::from_track(ti, t);
            }
        }
        for (ei, e) in t.events.iter().enumerate() {
            match e.kind {
                EventKind::Send { seq, .. } => {
                    send_index.insert(seq, (ti, ei));
                }
                EventKind::Edge { out_seq, .. } => {
                    edge_index.insert(out_seq, (ti, ei));
                }
                _ => {}
            }
        }
    }
    let (start_node, start_us) = data
        .final_us
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, &t)| (i as u32, t))?;
    let lossy = data.tracks.iter().any(|t| t.dropped > 0);
    let mut w = Walker {
        data,
        apps,
        send_index,
        edge_index,
        segments: Vec::new(),
        last_lo: start_us,
        contiguous: true,
        unresolved: 0,
    };
    let cnt0 = w.cnt_at(start_node, f64::INFINITY);
    let mut step = Some(Step::Local {
        node: start_node,
        cnt: cnt0,
        t: start_us,
    });
    // Each step either consumes a blocking receive or terminates, so
    // the walk is bounded by the event count; the guard only fires on
    // malformed (hand-built, cyclic) traces.
    let mut fuel = 4 * data.event_count() + 64;
    while let Some(s) = step {
        if fuel == 0 {
            w.contiguous = false;
            break;
        }
        fuel -= 1;
        step = w.step(s);
    }
    let end_us = w.last_lo;
    let mut segments = w.segments;
    segments.reverse();
    let slack_us = data.final_us.iter().map(|&f| start_us - f).collect();
    Some(CriticalPath {
        start_node,
        start_us,
        end_us,
        segments,
        contiguous: w.contiguous,
        unresolved: w.unresolved,
        lossy,
        slack_us,
    })
}

/// Well-formedness statistics of the happens-before DAG encoded in a
/// trace's correlation ids.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DagCheck {
    /// Blocking-capable receive events examined.
    pub recvs: u64,
    /// Receives whose id matched a recorded `Send` event.
    pub matched_send: u64,
    /// Receives resolved through an `Edge` (self-delivered upcalls).
    pub matched_edge: u64,
    /// Receives decoded to a same-node producer endpoint (app-level
    /// self-delivery; no events by design).
    pub self_delivered: u64,
    /// Causal `Edge` events examined.
    pub edges: u64,
    /// Structural violations: unmatched ids, effects before causes
    /// (which would make the "DAG" cyclic — virtual time orders every
    /// true dependence forward).
    pub violations: Vec<String>,
}

impl DagCheck {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Check that the trace's causal graph is well formed: every receive's
/// id resolves to a producer, every edge's cause resolves, and every
/// dependence points backward in virtual time (acyclicity — time is the
/// topological order).
pub fn check_dag(data: &TraceData) -> DagCheck {
    let mut send_vt: HashMap<u64, (u32, f64)> = HashMap::new();
    let mut edge_vt: HashMap<u64, (u32, f64)> = HashMap::new();
    for t in &data.tracks {
        for e in &t.events {
            match e.kind {
                EventKind::Send { seq, .. } => {
                    send_vt.insert(seq, (t.node, e.vt_us));
                }
                EventKind::Edge { out_seq, .. } => {
                    edge_vt.insert(out_seq, (t.node, e.vt_us));
                }
                _ => {}
            }
        }
    }
    let mut c = DagCheck::default();
    for t in &data.tracks {
        for e in &t.events {
            match e.kind {
                EventKind::Recv { seq, .. } => {
                    c.recvs += 1;
                    if let Some(&(_, svt)) = send_vt.get(&seq) {
                        c.matched_send += 1;
                        if svt > e.vt_us {
                            c.violations.push(format!(
                                "recv of {seq:#x} at {} us precedes its send at {svt} us",
                                e.vt_us
                            ));
                        }
                    } else if let Some(&(_, evt)) = edge_vt.get(&seq) {
                        c.matched_edge += 1;
                        if evt > e.vt_us {
                            c.violations.push(format!(
                                "recv of {seq:#x} at {} us precedes its edge anchor at {evt} us",
                                e.vt_us
                            ));
                        }
                    } else if seq_sender(seq).0 == t.node as usize {
                        c.self_delivered += 1;
                    } else {
                        c.violations.push(format!(
                            "recv of {seq:#x} on node {} has no producer",
                            t.node
                        ));
                    }
                }
                EventKind::Edge {
                    out_seq, cause_seq, ..
                } => {
                    c.edges += 1;
                    if let Some(&(_, svt)) = send_vt.get(&out_seq) {
                        if e.vt_us > svt {
                            c.violations.push(format!(
                                "edge for {out_seq:#x} anchored at {} us after its send at {svt} us",
                                e.vt_us
                            ));
                        }
                    }
                    if cause_seq != 0
                        && !send_vt.contains_key(&cause_seq)
                        && !edge_vt.contains_key(&cause_seq)
                        && seq_sender(cause_seq).0 != t.node as usize
                    {
                        c.violations.push(format!(
                            "edge cause {cause_seq:#x} on node {} has no producer",
                            t.node
                        ));
                    }
                }
                _ => {}
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2sim::{EdgeKind, Event};

    fn ev(vt: f64, kind: EventKind) -> Event {
        Event {
            vt_us: vt,
            host_ns: 0,
            kind,
        }
    }

    fn track(node: u32, port: TracePort, events: Vec<Event>) -> TrackTrace {
        TrackTrace {
            node,
            port,
            events,
            dropped: 0,
        }
    }

    /// Endpoint-encoded seq as the simulator builds them.
    fn seq(node: u64, service: bool, counter: u64) -> u64 {
        ((node * 2 + service as u64) << 40) | counter
    }

    /// Node 1 computes to 50 and sends; node 0 blocks from 10 until the
    /// packet lands at 62. The path is node0 local [62,100] ← wire
    /// [50,62] ← node1 local [0,50]: exactly node 0's final clock.
    #[test]
    fn app_to_app_path_telescopes_to_final_clock() {
        let s = seq(1, false, 1);
        let n0 = track(
            0,
            TracePort::App,
            vec![
                ev(
                    10.0,
                    EventKind::Begin {
                        kind: SpanKind::RecvWait,
                        arg: 0,
                    },
                ),
                ev(
                    62.0,
                    EventKind::Recv {
                        code: 0,
                        bytes: 8,
                        peer: 1,
                        seq: s,
                        wait_us: 52.0,
                    },
                ),
                ev(
                    62.0,
                    EventKind::End {
                        kind: SpanKind::RecvWait,
                    },
                ),
            ],
        );
        let n1 = track(
            1,
            TracePort::App,
            vec![
                ev(
                    0.0,
                    EventKind::Begin {
                        kind: SpanKind::Compute,
                        arg: 0,
                    },
                ),
                ev(
                    50.0,
                    EventKind::End {
                        kind: SpanKind::Compute,
                    },
                ),
                ev(
                    50.0,
                    EventKind::Send {
                        code: 0,
                        bytes: 8,
                        peer: 0,
                        wire_us: 2.0,
                        seq: s,
                    },
                ),
            ],
        );
        let data = TraceData {
            tracks: vec![n0, n1],
            final_us: vec![100.0, 52.0],
        };
        let cp = compute(&data).unwrap();
        assert_eq!(cp.start_node, 0);
        assert!(cp.exact(), "path should be exact: {cp:?}");
        assert_eq!(cp.length_us(), 100.0);
        assert_eq!(cp.slack_us, vec![0.0, 48.0]);
        // Wire hop covers [50, 62].
        let wire: f64 = cp
            .segments
            .iter()
            .filter(|s| matches!(s.kind, SegmentKind::Wire { .. }))
            .map(Segment::dur_us)
            .sum();
        assert_eq!(wire, 12.0);
        // Node 1's compute span is on the path; node 0's wait is not
        // (the walk crossed to the producer instead).
        assert!(cp
            .segments
            .iter()
            .any(|s| s.kind == SegmentKind::Span(SpanKind::Compute) && s.node == 1));
        assert!(!cp
            .segments
            .iter()
            .any(|s| s.kind == SegmentKind::Span(SpanKind::RecvWait)));
        assert!(check_dag(&data).ok());
    }

    /// A service-track reply follows its Edge back to the requester:
    /// node 0 faults at 20, node 1's service loop replies at 30 (edge
    /// anchored at the request's arrival 25, cause = the request).
    #[test]
    fn service_reply_follows_edge_to_requester() {
        let req = seq(0, false, 1);
        let rep = seq(1, true, 1);
        let n0 = track(
            0,
            TracePort::App,
            vec![
                ev(
                    20.0,
                    EventKind::Send {
                        code: 0,
                        bytes: 16,
                        peer: 1,
                        wire_us: 1.0,
                        seq: req,
                    },
                ),
                ev(
                    40.0,
                    EventKind::Recv {
                        code: 1,
                        bytes: 4096,
                        peer: 1,
                        seq: rep,
                        wait_us: 19.0,
                    },
                ),
            ],
        );
        let svc1 = track(
            1,
            TracePort::Service,
            vec![
                ev(
                    25.0,
                    EventKind::Edge {
                        kind: EdgeKind::Response,
                        out_seq: rep,
                        cause_seq: req,
                    },
                ),
                ev(
                    30.0,
                    EventKind::Send {
                        code: 1,
                        bytes: 4096,
                        peer: 0,
                        wire_us: 4.0,
                        seq: rep,
                    },
                ),
            ],
        );
        let data = TraceData {
            tracks: vec![n0, track(1, TracePort::App, vec![]), svc1],
            final_us: vec![60.0, 5.0],
        };
        let cp = compute(&data).unwrap();
        assert!(cp.exact(), "{cp:?}");
        assert_eq!(cp.length_us(), 60.0);
        // Expect: local [40,60] ← wire [30,40] ← service [25,30] ←
        // wire [20,25] ← local [0,20].
        let svc: f64 = cp
            .segments
            .iter()
            .filter(|s| s.kind == SegmentKind::Service)
            .map(Segment::dur_us)
            .sum();
        assert_eq!(svc, 5.0);
        let wire: f64 = cp
            .segments
            .iter()
            .filter(|s| matches!(s.kind, SegmentKind::Wire { .. }))
            .map(Segment::dur_us)
            .sum();
        assert_eq!(wire, 15.0);
        assert!(check_dag(&data).ok());
    }

    /// A local-cause edge (cause_seq = 0) continues on the same node's
    /// app track at the anchor.
    #[test]
    fn local_cause_edge_stays_on_node() {
        let grant = seq(0, true, 1);
        let n0 = track(
            0,
            TracePort::App,
            vec![ev(
                35.0,
                EventKind::Recv {
                    code: 2,
                    bytes: 8,
                    peer: 0,
                    seq: grant,
                    wait_us: 5.0,
                },
            )],
        );
        let svc0 = track(
            0,
            TracePort::Service,
            vec![ev(
                30.0,
                EventKind::Edge {
                    kind: EdgeKind::LockHandoff,
                    out_seq: grant,
                    cause_seq: 0,
                },
            )],
        );
        let data = TraceData {
            tracks: vec![n0, svc0],
            final_us: vec![50.0],
        };
        let cp = compute(&data).unwrap();
        assert!(cp.exact(), "{cp:?}");
        assert_eq!(cp.length_us(), 50.0);
        // The upcall gating [30,35] is attributed as service time.
        let svc: f64 = cp
            .segments
            .iter()
            .filter(|s| s.kind == SegmentKind::Service)
            .map(Segment::dur_us)
            .sum();
        assert_eq!(svc, 5.0);
    }

    /// Dangling correlation ids are surfaced, not silently absorbed.
    #[test]
    fn unresolved_ids_break_exactness() {
        let ghost = seq(1, false, 7);
        let n0 = track(
            0,
            TracePort::App,
            vec![ev(
                10.0,
                EventKind::Recv {
                    code: 0,
                    bytes: 8,
                    peer: 1,
                    seq: ghost,
                    wait_us: 10.0,
                },
            )],
        );
        let data = TraceData {
            tracks: vec![n0, track(1, TracePort::App, vec![])],
            final_us: vec![20.0, 0.0],
        };
        let cp = compute(&data).unwrap();
        assert_eq!(cp.unresolved, 1);
        assert!(!cp.exact());
        let dag = check_dag(&data);
        assert!(!dag.ok());
        assert_eq!(dag.recvs, 1);
    }

    /// Lossy tracks poison exactness even when the walk completes.
    #[test]
    fn lossy_tracks_poison_exactness() {
        let mut t = track(0, TracePort::App, vec![]);
        t.dropped = 3;
        let data = TraceData {
            tracks: vec![t],
            final_us: vec![10.0],
        };
        let cp = compute(&data).unwrap();
        assert!(cp.lossy);
        assert!(!cp.exact());
        assert_eq!(cp.end_us, 0.0);
    }
}
