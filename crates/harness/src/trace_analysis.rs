//! Virtual-time trace analysis: the per-phase time breakdown and the
//! Chrome/Perfetto trace-event exporter.
//!
//! The simulator's event traces (see the `trace` crate and
//! [`sp2sim::ClusterConfig::with_tracing`]) record *spans* — compute
//! bodies, synchronization waits, protocol service on the application's
//! critical path — plus instant events for every cross-node message.
//! This module turns a [`TraceData`] into the paper's Figure-2-style
//! four-way attribution:
//!
//! * **compute** — self-time of explicit [`SpanKind::Compute`] spans
//!   (SPF loop bodies), plus an *uncovered* remainder for virtual time
//!   outside any span (sequential master code, hand-coded kernels);
//! * **wait** — self-time of synchronization spans (barrier, fork/join,
//!   lock, reduction, plain receives);
//! * **service** — protocol work on the app's critical path (fault
//!   handling, diff application, validates, publishes, pushes,
//!   inspector walks), reported alongside the *service-track* time the
//!   node's request loop spent serving remote peers (which overlaps the
//!   app-side categories and is therefore kept separate);
//! * **wire** — send occupancy charged to the application clock.
//!
//! Nested spans are handled by debiting: a span's category is charged
//! its *self* time (duration minus enclosed spans and sends), so the
//! per-node identity `covered + wait + service + wire + uncovered =
//! final virtual time` holds exactly by construction — the analyzer
//! tests pin that the *uncovered* share is small on hinted SPF runs,
//! which is the falsifiable part.
//!
//! [`to_chrome_trace`] renders the same data as Chrome trace-event JSON
//! (the `chrome://tracing` / [Perfetto](https://ui.perfetto.dev) format)
//! and [`validate_chrome_trace`] checks the invariants Perfetto needs
//! (per-track monotone timestamps, balanced begin/end nesting).

use sp2sim::stats::msg_label;
use sp2sim::{Category, EventKind, SpanKind, TraceData, TracePort, TrackTrace};
use treadmarks::protocol::op;

use crate::critical_path::CriticalPath;
use crate::json::{obj, Json};

/// Per-node four-way time attribution over the whole run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NodeBreakdown {
    pub node: u32,
    /// The node's final virtual clock (µs) — the denominator.
    pub total_us: f64,
    /// Self-time of explicit Compute spans.
    pub covered_compute_us: f64,
    /// Self-time of synchronization-wait spans.
    pub wait_us: f64,
    /// Self-time of protocol-service spans on the app track.
    pub service_us: f64,
    /// Send occupancy charged to the app clock.
    pub wire_us: f64,
    /// `total - covered - wait - service - wire`: virtual time outside
    /// any span (sequential code, unhinted kernels). Near zero for
    /// fully instrumented SPF runs; large for hand-coded versions whose
    /// compute is not bracketed by Compute spans.
    pub uncovered_us: f64,
    /// Time the node's protocol *service loop* spent serving remote
    /// requests. Overlaps the app-side categories (the service thread
    /// runs while the app computes or waits), so it is reported
    /// separately and excluded from the identity.
    pub svc_track_us: f64,
    /// Events lost to ring-buffer overflow on either track. When
    /// nonzero the breakdown is a lower bound, not an identity.
    pub dropped: u64,
    /// Ends without a matching begin (only possible on lossy tracks).
    pub unmatched: u64,
}

impl NodeBreakdown {
    /// Compute including the uncovered remainder.
    pub fn compute_us(&self) -> f64 {
        self.covered_compute_us + self.uncovered_us
    }

    /// Time accounted to explicit spans and wire: everything except the
    /// uncovered remainder.
    pub fn accounted_us(&self) -> f64 {
        self.covered_compute_us + self.wait_us + self.service_us + self.wire_us
    }
}

/// Per-epoch category sums, aggregated over nodes. Epochs are the
/// DSM's rendezvous intervals (barrier/join/fork boundaries emit the
/// markers); events between marker `i-1` and marker `i` land in bin `i`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EpochBreakdown {
    pub index: u32,
    pub compute_us: f64,
    pub wait_us: f64,
    pub service_us: f64,
    pub wire_us: f64,
    /// Spans attributed to this epoch (by their end time).
    pub spans: u64,
}

/// The analyzed trace: per-node attributions plus per-epoch bins.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceAnalysis {
    pub nodes: Vec<NodeBreakdown>,
    pub epochs: Vec<EpochBreakdown>,
}

impl TraceAnalysis {
    /// Cluster-wide wait (sum over nodes).
    pub fn wait_us(&self) -> f64 {
        self.nodes.iter().map(|n| n.wait_us).sum()
    }

    /// Cluster-wide protocol-service time: app-track service spans plus
    /// the request loops' service-track time.
    pub fn service_us(&self) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.service_us + n.svc_track_us)
            .sum()
    }

    /// Cluster-wide send occupancy on the app clocks.
    pub fn wire_us(&self) -> f64 {
        self.nodes.iter().map(|n| n.wire_us).sum()
    }

    /// True when any track overflowed its ring buffer.
    pub fn lossy(&self) -> bool {
        self.nodes.iter().any(|n| n.dropped > 0)
    }
}

struct Open {
    kind: SpanKind,
    begin: f64,
    /// Virtual time consumed by enclosed spans and sends — subtracted
    /// from the duration to get the span's self time.
    debit: f64,
}

/// Analyze a trace into per-node and per-epoch breakdowns.
pub fn analyze(data: &TraceData) -> TraceAnalysis {
    let mut nodes: Vec<NodeBreakdown> = Vec::new();
    let mut epochs: Vec<EpochBreakdown> = Vec::new();
    let mut node_ids: Vec<u32> = data.tracks.iter().map(|t| t.node).collect();
    node_ids.sort_unstable();
    node_ids.dedup();
    for node in node_ids {
        let mut b = NodeBreakdown {
            node,
            total_us: data
                .final_us
                .get(node as usize)
                .copied()
                .unwrap_or_default(),
            ..Default::default()
        };
        if let Some(t) = data.track(node, TracePort::App) {
            walk_app_track(t, &mut b, &mut epochs);
        }
        if let Some(t) = data.track(node, TracePort::Service) {
            b.dropped += t.dropped;
            for e in &t.events {
                if let EventKind::Service { dur_us, .. } = e.kind {
                    b.svc_track_us += dur_us;
                }
            }
        }
        b.uncovered_us = b.total_us - b.accounted_us();
        nodes.push(b);
    }
    epochs.retain(|e| e.spans > 0 || e.compute_us + e.wait_us + e.service_us + e.wire_us > 0.0);
    TraceAnalysis { nodes, epochs }
}

fn epoch_bin(epochs: &mut Vec<EpochBreakdown>, bin: usize) -> &mut EpochBreakdown {
    while epochs.len() <= bin {
        let index = epochs.len() as u32;
        epochs.push(EpochBreakdown {
            index,
            ..Default::default()
        });
    }
    &mut epochs[bin]
}

fn walk_app_track(t: &TrackTrace, b: &mut NodeBreakdown, epochs: &mut Vec<EpochBreakdown>) {
    b.dropped += t.dropped;
    let mut stack: Vec<Open> = Vec::new();
    // Current epoch bin: the number of markers seen so far (the marker
    // for epoch `i` is emitted after all of epoch `i`'s spans end).
    let mut bin = 0usize;
    for e in &t.events {
        match e.kind {
            EventKind::Begin { kind, .. } => stack.push(Open {
                kind,
                begin: e.vt_us,
                debit: 0.0,
            }),
            EventKind::End { kind } => {
                let Some(i) = stack.iter().rposition(|o| o.kind == kind) else {
                    b.unmatched += 1;
                    continue;
                };
                let o = stack.remove(i);
                let dur = (e.vt_us - o.begin).max(0.0);
                let self_us = (dur - o.debit).max(0.0);
                let eb = epoch_bin(epochs, bin);
                eb.spans += 1;
                match kind.category() {
                    Category::Compute => {
                        b.covered_compute_us += self_us;
                        eb.compute_us += self_us;
                    }
                    Category::Wait => {
                        b.wait_us += self_us;
                        eb.wait_us += self_us;
                    }
                    Category::Service => {
                        b.service_us += self_us;
                        eb.service_us += self_us;
                    }
                    // Spans are never in the Wire category (wire time
                    // comes only from Send events).
                    Category::Wire => {}
                }
                if let Some(parent) = stack.last_mut() {
                    parent.debit += dur;
                }
            }
            EventKind::Send { wire_us, .. } => {
                b.wire_us += wire_us;
                epoch_bin(epochs, bin).wire_us += wire_us;
                if let Some(top) = stack.last_mut() {
                    top.debit += wire_us;
                }
            }
            EventKind::Recv { .. } | EventKind::Service { .. } | EventKind::Edge { .. } => {}
            EventKind::Epoch { index } => bin = index as usize + 1,
        }
    }
    // Spans never closed (teardown truncation, lossy tracks): close
    // them at the node's final clock so their time is not silently
    // dropped, and flag the irregularity.
    while let Some(o) = stack.pop() {
        b.unmatched += 1;
        let dur = (b.total_us - o.begin).max(0.0);
        let self_us = (dur - o.debit).max(0.0);
        match o.kind.category() {
            Category::Compute => b.covered_compute_us += self_us,
            Category::Wait => b.wait_us += self_us,
            Category::Service => b.service_us += self_us,
            Category::Wire => {}
        }
    }
}

// ---------------------------------------------------------------------
// Chrome/Perfetto trace-event export
// ---------------------------------------------------------------------

fn base_event(name: String, ph: &str, ts: f64, pid: u32, tid: u32) -> Vec<(&'static str, Json)> {
    vec![
        ("name", Json::Str(name)),
        ("ph", Json::Str(ph.into())),
        ("ts", Json::Num(ts)),
        ("pid", Json::Num(pid as f64)),
        ("tid", Json::Num(tid as f64)),
    ]
}

/// A thread-scoped instant event carrying `args`.
fn instant(name: String, ts: f64, pid: u32, tid: u32, args: Vec<(&str, Json)>) -> Json {
    let mut f = base_event(name, "i", ts, pid, tid);
    f.push(("s", Json::Str("t".into())));
    f.push(("args", obj(args)));
    obj(f)
}

fn meta_event(name: &str, pid: u32, tid: Option<u32>, value: &str) -> Json {
    let mut fields = vec![
        ("name", Json::Str(name.into())),
        ("ph", Json::Str("M".into())),
        ("pid", Json::Num(pid as f64)),
    ];
    if let Some(tid) = tid {
        fields.push(("tid", Json::Num(tid as f64)));
    }
    fields.push(("args", obj(vec![("name", Json::Str(value.into()))])));
    obj(fields)
}

/// Render a trace as Chrome trace-event JSON — loadable in
/// `chrome://tracing` and <https://ui.perfetto.dev>. Simulated nodes
/// map to processes; each node has an `app` thread (spans as nested
/// B/E events on the monotone app clock) and a `service` thread
/// (request dispatches as complete "X" events — the service clock
/// tracks request arrival times, so its events are sorted by
/// timestamp rather than emission order). Message sends, receives and
/// epoch boundaries appear as instant events. All timestamps are
/// virtual microseconds.
///
/// A computed [`CriticalPath`], when given, is rendered as a dedicated
/// synthetic process (pid one past the highest node id, named
/// "critical path") whose single thread carries one complete "X" event
/// per path segment: Perfetto shows the causal chain as a contiguous
/// lane aligned with the per-node tracks it threads through; each
/// event's args name the node and epoch the segment was attributed to.
pub fn to_chrome_trace(data: &TraceData, path: Option<&CriticalPath>) -> Json {
    let mut events: Vec<Json> = Vec::new();
    let mut seen_nodes: Vec<u32> = Vec::new();
    for t in &data.tracks {
        if !seen_nodes.contains(&t.node) {
            seen_nodes.push(t.node);
            events.push(meta_event(
                "process_name",
                t.node,
                None,
                &format!("node {}", t.node),
            ));
        }
        let tid = t.port as u32;
        events.push(meta_event("thread_name", t.node, Some(tid), t.port.label()));
        let mut track_events: Vec<(f64, Json)> = Vec::with_capacity(t.events.len());
        for e in &t.events {
            let ts = e.vt_us;
            let v = match e.kind {
                EventKind::Begin { kind, arg } => {
                    let mut f = base_event(kind.label().into(), "B", ts, t.node, tid);
                    f.push(("cat", Json::Str(kind.category().label().into())));
                    f.push(("args", obj(vec![("arg", Json::Num(arg as f64))])));
                    obj(f)
                }
                EventKind::End { kind } => {
                    obj(base_event(kind.label().into(), "E", ts, t.node, tid))
                }
                EventKind::Send {
                    code,
                    bytes,
                    peer,
                    wire_us,
                    seq,
                } => instant(
                    format!("send {} {}B -> {}", msg_label(code), bytes, peer),
                    ts,
                    t.node,
                    tid,
                    vec![
                        ("bytes", Json::Num(bytes as f64)),
                        ("peer", Json::Num(peer as f64)),
                        ("wire_us", Json::Num(wire_us)),
                        ("seq", Json::Num(seq as f64)),
                    ],
                ),
                EventKind::Recv {
                    code,
                    bytes,
                    peer,
                    seq,
                    wait_us,
                } => instant(
                    format!("recv {} {}B <- {}", msg_label(code), bytes, peer),
                    ts,
                    t.node,
                    tid,
                    vec![
                        ("bytes", Json::Num(bytes as f64)),
                        ("peer", Json::Num(peer as f64)),
                        ("seq", Json::Num(seq as f64)),
                        ("wait_us", Json::Num(wait_us)),
                    ],
                ),
                EventKind::Edge {
                    kind,
                    out_seq,
                    cause_seq,
                } => instant(
                    format!("edge {}", kind.label()),
                    ts,
                    t.node,
                    tid,
                    vec![
                        ("out_seq", Json::Num(out_seq as f64)),
                        ("cause_seq", Json::Num(cause_seq as f64)),
                    ],
                ),
                EventKind::Service { op, dur_us } => {
                    let mut f = base_event(op::label(op.into()).into(), "X", ts, t.node, tid);
                    f.push(("dur", Json::Num(dur_us)));
                    f.push(("cat", Json::Str("service".into())));
                    obj(f)
                }
                EventKind::Epoch { index } => {
                    let mut f = base_event(format!("epoch {index}"), "i", ts, t.node, tid);
                    f.push(("s", Json::Str("p".into())));
                    obj(f)
                }
            };
            track_events.push((ts, v));
        }
        // The app clock is monotone, so app tracks are already ordered;
        // the service clock is not (events carry request arrival
        // times), so its track is sorted to satisfy trace viewers.
        if t.port == TracePort::Service {
            track_events.sort_by(|a, b| a.0.total_cmp(&b.0));
        }
        let last_ts = track_events.last().map(|(ts, _)| *ts).unwrap_or(0.0);
        events.extend(track_events.into_iter().map(|(_, v)| v));
        // Surface ring-buffer overflow in the trace itself: a lossy
        // track gets a trailing instant that validation rejects, so a
        // truncated trace can never silently pass for a complete one.
        if t.dropped > 0 {
            let count = vec![("count", Json::Num(t.dropped as f64))];
            events.push(instant(
                "dropped-events".into(),
                last_ts,
                t.node,
                tid,
                count,
            ));
        }
    }
    if let Some(cp) = path {
        let pid = data.tracks.iter().map(|t| t.node).max().unwrap_or(0) + 1;
        events.push(meta_event("process_name", pid, None, "critical path"));
        events.push(meta_event("thread_name", pid, Some(0), "segments"));
        // Segments are stored in forward time order and never overlap,
        // so the track stays timestamp-monotone for the validator.
        for s in &cp.segments {
            let mut f = base_event(s.kind.label().into(), "X", s.lo_us, pid, 0);
            f.push(("dur", Json::Num(s.dur_us())));
            f.push(("cat", Json::Str(s.kind.category().label().into())));
            f.push((
                "args",
                obj(vec![
                    ("node", Json::Num(s.node as f64)),
                    ("epoch", Json::Num(s.epoch as f64)),
                ]),
            ));
            events.push(obj(f));
        }
    }
    obj(vec![
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::Str("ms".into())),
    ])
}

/// Check the invariants a Chrome/Perfetto trace must satisfy:
/// `traceEvents` is present; every event carries `ph`, `pid`, `tid`
/// and a finite `ts` (metadata aside); timestamps never go backwards
/// within one `(pid, tid)` track; and B/E events nest — every E
/// matches the name of the innermost open B, with nothing left open.
pub fn validate_chrome_trace(v: &Json) -> Result<(), String> {
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    // (pid, tid) -> (last ts, stack of open B names)
    let mut tracks: Vec<((u64, u64), f64, Vec<String>)> = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i} missing ph"))?;
        if ph == "M" {
            continue;
        }
        let pid = e
            .get("pid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i} missing pid"))?;
        let tid = e
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("event {i} missing tid"))?;
        let ts = e
            .get("ts")
            .and_then(Json::as_f64)
            .filter(|t| t.is_finite())
            .ok_or_else(|| format!("event {i} missing finite ts"))?;
        let name = e.get("name").and_then(Json::as_str).unwrap_or_default();
        let key = (pid, tid);
        let track = match tracks.iter_mut().find(|(k, _, _)| *k == key) {
            Some(t) => t,
            None => {
                tracks.push((key, f64::NEG_INFINITY, Vec::new()));
                tracks.last_mut().unwrap()
            }
        };
        if ts < track.1 {
            return Err(format!(
                "event {i} ({name}): ts {ts} goes backwards on track {key:?} (last {})",
                track.1
            ));
        }
        track.1 = ts;
        match ph {
            "B" => track.2.push(name.to_string()),
            "E" => match track.2.pop() {
                Some(open) if open == name => {}
                Some(open) => {
                    return Err(format!(
                        "event {i}: E '{name}' does not match open B '{open}' on {key:?}"
                    ))
                }
                None => return Err(format!("event {i}: E '{name}' with no open B on {key:?}")),
            },
            "X" => {
                let dur = e
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("event {i}: X without dur"))?;
                if dur.is_nan() || dur < 0.0 {
                    return Err(format!("event {i}: negative X dur {dur}"));
                }
            }
            "i" => {
                if name == "dropped-events" {
                    let count = e
                        .get("args")
                        .and_then(|a| a.get("count"))
                        .and_then(Json::as_u64)
                        .unwrap_or(0);
                    if count > 0 {
                        return Err(format!(
                            "event {i}: track {key:?} dropped {count} events (ring overflow)"
                        ));
                    }
                }
            }
            other => return Err(format!("event {i}: unsupported ph '{other}'")),
        }
    }
    for (key, _, stack) in &tracks {
        if let Some(open) = stack.last() {
            return Err(format!("track {key:?}: B '{open}' never closed"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2sim::{Event, TracePort, TrackTrace};

    fn ev(vt: f64, kind: EventKind) -> Event {
        Event {
            vt_us: vt,
            host_ns: 0,
            kind,
        }
    }

    fn begin(vt: f64, kind: SpanKind) -> Event {
        ev(vt, EventKind::Begin { kind, arg: 0 })
    }

    fn end(vt: f64, kind: SpanKind) -> Event {
        ev(vt, EventKind::End { kind })
    }

    fn track(node: u32, port: TracePort, events: Vec<Event>) -> TrackTrace {
        TrackTrace {
            node,
            port,
            events,
            dropped: 0,
        }
    }

    /// Nested spans: the child's duration is debited from the parent,
    /// and a send inside the child debits the child only.
    #[test]
    fn nesting_debits_parent_self_time() {
        let events = vec![
            begin(0.0, SpanKind::Compute),
            begin(10.0, SpanKind::Fault),
            ev(
                12.0,
                EventKind::Send {
                    code: 2,
                    bytes: 64,
                    peer: 1,
                    wire_us: 3.0,
                    seq: 1,
                },
            ),
            end(30.0, SpanKind::Fault),
            end(100.0, SpanKind::Compute),
        ];
        let data = TraceData {
            tracks: vec![track(0, TracePort::App, events)],
            final_us: vec![100.0],
        };
        let a = analyze(&data);
        let n = &a.nodes[0];
        // Fault span: 20 total, 3 wire debited -> 17 service.
        assert_eq!(n.service_us, 17.0);
        assert_eq!(n.wire_us, 3.0);
        // Compute span: 100 total minus the fault's full 20.
        assert_eq!(n.covered_compute_us, 80.0);
        assert_eq!(n.uncovered_us, 0.0);
        assert_eq!(n.accounted_us(), 100.0);
    }

    /// The per-node identity holds even with time outside any span.
    #[test]
    fn uncovered_remainder_completes_the_identity() {
        let events = vec![
            begin(40.0, SpanKind::BarrierWait),
            end(90.0, SpanKind::BarrierWait),
        ];
        let data = TraceData {
            tracks: vec![track(0, TracePort::App, events)],
            final_us: vec![120.0],
        };
        let a = analyze(&data);
        let n = &a.nodes[0];
        assert_eq!(n.wait_us, 50.0);
        assert_eq!(n.uncovered_us, 70.0);
        assert_eq!(n.compute_us() + n.wait_us + n.service_us + n.wire_us, 120.0);
    }

    /// Epoch markers split span self-time into bins by end time.
    #[test]
    fn epoch_markers_bin_spans() {
        let events = vec![
            begin(0.0, SpanKind::Compute),
            end(10.0, SpanKind::Compute),
            ev(10.0, EventKind::Epoch { index: 0 }),
            begin(10.0, SpanKind::Compute),
            end(25.0, SpanKind::Compute),
            ev(25.0, EventKind::Epoch { index: 1 }),
        ];
        let data = TraceData {
            tracks: vec![track(0, TracePort::App, events)],
            final_us: vec![25.0],
        };
        let a = analyze(&data);
        assert_eq!(a.epochs.len(), 2);
        assert_eq!(a.epochs[0].compute_us, 10.0);
        assert_eq!(a.epochs[1].compute_us, 15.0);
    }

    /// Service-track time is collected separately from the app-side
    /// categories (it overlaps them).
    #[test]
    fn service_track_is_separate() {
        let app = track(0, TracePort::App, vec![]);
        let svc = track(
            0,
            TracePort::Service,
            vec![
                ev(5.0, EventKind::Service { op: 1, dur_us: 2.0 }),
                ev(3.0, EventKind::Service { op: 3, dur_us: 2.0 }),
            ],
        );
        let data = TraceData {
            tracks: vec![app, svc],
            final_us: vec![50.0],
        };
        let a = analyze(&data);
        assert_eq!(a.nodes[0].svc_track_us, 4.0);
        assert_eq!(a.nodes[0].uncovered_us, 50.0);
        assert_eq!(a.service_us(), 4.0);
    }

    #[test]
    fn exporter_emits_validatable_json() {
        let app = track(
            0,
            TracePort::App,
            vec![
                begin(0.0, SpanKind::Compute),
                ev(
                    1.0,
                    EventKind::Send {
                        code: 0,
                        bytes: 8,
                        peer: 1,
                        wire_us: 0.5,
                        seq: 1,
                    },
                ),
                end(10.0, SpanKind::Compute),
                ev(10.0, EventKind::Epoch { index: 0 }),
            ],
        );
        // Service events arrive out of timestamp order; the exporter
        // sorts the track.
        let svc = track(
            0,
            TracePort::Service,
            vec![
                ev(8.0, EventKind::Service { op: 1, dur_us: 1.0 }),
                ev(
                    2.0,
                    EventKind::Service {
                        op: 11,
                        dur_us: 1.0,
                    },
                ),
            ],
        );
        let data = TraceData {
            tracks: vec![app, svc],
            final_us: vec![10.0],
        };
        let json = to_chrome_trace(&data, None);
        validate_chrome_trace(&json).expect("valid trace");
        // Round-trips through the hand-rolled JSON layer.
        let text = json.render();
        let back = Json::parse(&text).expect("parses");
        assert_eq!(back, json);
        validate_chrome_trace(&back).expect("still valid after round trip");
    }

    /// Every service span of a real run exports under its opcode's
    /// name, the owner fetch of a privatized page's words among them.
    #[test]
    fn an_owner_fetch_exports_under_its_own_name() {
        use sp2sim::{Cluster, ClusterConfig};
        use treadmarks::{ProtocolMode, Tmk, TmkConfig};
        for protocol in ProtocolMode::ALL {
            let cfg = ClusterConfig::sp2(3).with_tracing(true);
            let out = Cluster::run(cfg, |node| {
                let tmk = Tmk::new(node, TmkConfig::default().with_protocol(protocol));
                let a = tmk.malloc_f64(512);
                tmk.privatize(&[(a.first_page(), Some(1))]);
                if tmk.proc_id() == 1 {
                    tmk.write(a, 0..512).slice_mut().fill(1.0);
                }
                tmk.barrier(0);
                let fetched = (tmk.proc_id() == 0).then(|| tmk.read_one(a, 7));
                tmk.finish();
                fetched
            });
            assert_eq!(out.results, [Some(1.0), None, None], "{protocol:?}");
            let json = to_chrome_trace(&out.trace.expect("traced"), None);
            let names: Vec<&str> = json
                .get("traceEvents")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .filter_map(|e| e.get("name").and_then(Json::as_str))
                .collect();
            assert!(names.contains(&"owner-fetch"), "{protocol:?}");
            assert!(!names.contains(&"op?"), "{protocol:?}");
        }
    }

    #[test]
    fn validator_rejects_broken_nesting_and_time_travel() {
        let bad_nest = Json::parse(
            r#"{"traceEvents": [
                {"name": "a", "ph": "B", "ts": 0, "pid": 0, "tid": 0},
                {"name": "b", "ph": "E", "ts": 1, "pid": 0, "tid": 0}
            ]}"#,
        )
        .unwrap();
        assert!(validate_chrome_trace(&bad_nest).is_err());
        let unclosed = Json::parse(
            r#"{"traceEvents": [
                {"name": "a", "ph": "B", "ts": 0, "pid": 0, "tid": 0}
            ]}"#,
        )
        .unwrap();
        assert!(validate_chrome_trace(&unclosed).is_err());
        let backwards = Json::parse(
            r#"{"traceEvents": [
                {"name": "a", "ph": "i", "ts": 5, "pid": 0, "tid": 0},
                {"name": "b", "ph": "i", "ts": 4, "pid": 0, "tid": 0}
            ]}"#,
        )
        .unwrap();
        assert!(validate_chrome_trace(&backwards).is_err());
        // Distinct tracks have independent clocks.
        let two_tracks = Json::parse(
            r#"{"traceEvents": [
                {"name": "a", "ph": "i", "ts": 5, "pid": 0, "tid": 0},
                {"name": "b", "ph": "i", "ts": 4, "pid": 0, "tid": 1}
            ]}"#,
        )
        .unwrap();
        assert!(validate_chrome_trace(&two_tracks).is_ok());
    }
}
