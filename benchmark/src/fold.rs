//! The `host_ns` fold: where a traced cell's *host* time went, by layer.
//!
//! Every trace event carries the host nanoseconds since the cluster
//! started. The sequential engine runs all fibers on one OS thread, so
//! exactly one track is executing at any instant: merging all tracks by
//! `host_ns` gives one timeline, and each gap between consecutive
//! events belongs to whoever recorded the earlier one — it is charged
//! to that track's innermost open span. One exception: the gap that
//! ends at a track's *first* event is that track's own start-up. The
//! buckets therefore sum to the stamp of the last event exactly; the
//! caller adds the remainder of the cell's wall time (cluster set-up
//! and tear-down, result assembly) as `sp2sim.outside_s`.
//!
//! Blind spots, by construction: a gap that spans a fiber switch is
//! charged whole to the side that ran first, and code that records no
//! event of its own (`xhpf`/`mpl` self time, a `WriteView` commit) is
//! charged to whatever span encloses it — on an app track outside any
//! span that is `apps.compute_s`.

use sp2sim::{EventKind, SpanKind, TraceData, TracePort};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Bucket {
    AppsCompute,
    TmkFault,
    TmkDiffApply,
    TmkPublish,
    TmkHomeFetch,
    TmkPush,
    TmkService,
    CriValidate,
    InspectorInspect,
    Sp2simBlocked,
}

impl Bucket {
    pub const ALL: [Bucket; 10] = [
        Bucket::AppsCompute,
        Bucket::TmkFault,
        Bucket::TmkDiffApply,
        Bucket::TmkPublish,
        Bucket::TmkHomeFetch,
        Bucket::TmkPush,
        Bucket::TmkService,
        Bucket::CriValidate,
        Bucket::InspectorInspect,
        Bucket::Sp2simBlocked,
    ];

    /// The per-layer metric the bucket is reported as.
    pub fn metric(self) -> &'static str {
        match self {
            Bucket::AppsCompute => "apps.compute_s",
            Bucket::TmkFault => "treadmarks.fault_s",
            Bucket::TmkDiffApply => "treadmarks.diff_apply_s",
            Bucket::TmkPublish => "treadmarks.publish_s",
            Bucket::TmkHomeFetch => "treadmarks.home_fetch_s",
            Bucket::TmkPush => "treadmarks.push_s",
            Bucket::TmkService => "treadmarks.service_s",
            Bucket::CriValidate => "cri.validate_s",
            Bucket::InspectorInspect => "inspector.inspect_s",
            Bucket::Sp2simBlocked => "sp2sim.blocked_s",
        }
    }

    /// Where an app track's time goes while `span` is innermost
    /// (`None`: outside every span).
    fn of_span(span: Option<SpanKind>) -> Bucket {
        match span {
            None | Some(SpanKind::Compute) => Bucket::AppsCompute,
            Some(
                SpanKind::BarrierWait
                | SpanKind::ForkWait
                | SpanKind::JoinWait
                | SpanKind::LockWait
                | SpanKind::ReduceWait
                | SpanKind::RecvWait,
            ) => Bucket::Sp2simBlocked,
            Some(SpanKind::PushRecv | SpanKind::PushSend) => Bucket::TmkPush,
            Some(SpanKind::Fault) => Bucket::TmkFault,
            Some(SpanKind::DiffApply) => Bucket::TmkDiffApply,
            Some(SpanKind::Validate) => Bucket::CriValidate,
            Some(SpanKind::Publish) => Bucket::TmkPublish,
            Some(SpanKind::HomeFetch) => Bucket::TmkHomeFetch,
            Some(SpanKind::Inspect) => Bucket::InspectorInspect,
        }
    }
}

/// Host nanoseconds per bucket, plus what the fold covered.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Fold {
    pub ns: [u64; Bucket::ALL.len()],
    pub events: u64,
    pub dropped: u64,
}

impl Fold {
    pub fn get(&self, b: Bucket) -> u64 {
        self.ns[b as usize]
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn add(&mut self, other: &Fold) {
        for (a, b) in self.ns.iter_mut().zip(other.ns) {
            *a += b;
        }
        self.events += other.events;
        self.dropped += other.dropped;
    }
}

/// Fold one traced run. Fails on a trace whose spans do not nest (an
/// `End` that does not close the innermost open span, or a span left
/// open at the end of its track): self times would be meaningless.
pub fn fold(trace: &TraceData) -> Result<Fold, String> {
    let mut order: Vec<(u64, usize, usize)> = Vec::with_capacity(trace.event_count());
    for (t, track) in trace.tracks.iter().enumerate() {
        order.extend(
            track
                .events
                .iter()
                .enumerate()
                .map(|(i, e)| (e.host_ns, t, i)),
        );
    }
    // Recording order within a track is already chronological; the
    // (track, index) tie-break only makes equal stamps deterministic.
    order.sort_unstable();

    let mut out = Fold {
        events: order.len() as u64,
        dropped: trace.tracks.iter().map(|t| t.dropped).sum(),
        ..Fold::default()
    };
    let mut stacks: Vec<Vec<SpanKind>> = vec![Vec::new(); trace.tracks.len()];
    let mut started = vec![false; trace.tracks.len()];
    // The run's clock starts at 0, before any fiber has run.
    let mut prev = (0u64, Bucket::AppsCompute);
    for &(at, t, i) in &order {
        let track = &trace.tracks[t];
        let stack = &mut stacks[t];
        let own = |stack: &[SpanKind]| match track.port {
            TracePort::Service => Bucket::TmkService,
            TracePort::App => Bucket::of_span(stack.last().copied()),
        };
        // A fiber records nothing until its first event, so the gap
        // that ends there is its own start-up (an app's array
        // initialisation), not the wait of whoever ran before it.
        let bucket = if started[t] { prev.1 } else { own(stack) };
        started[t] = true;
        out.ns[bucket as usize] += at - prev.0;
        match track.events[i].kind {
            EventKind::Begin { kind, .. } => stack.push(kind),
            EventKind::End { kind } => {
                let innermost = stack.pop();
                if innermost != Some(kind) {
                    return Err(format!(
                        "node {} {} track: end of {} does not close the innermost open span",
                        track.node,
                        track.port.label(),
                        kind.label()
                    ));
                }
            }
            _ => {}
        }
        prev = (at, own(stack));
    }
    for (track, stack) in trace.tracks.iter().zip(&stacks) {
        if let Some(open) = stack.last() {
            return Err(format!(
                "node {} {} track: {} span never closed",
                track.node,
                track.port.label(),
                open.label()
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sp2sim::{Event, TrackTrace};

    fn begin(at: u64, kind: SpanKind) -> Event {
        Event {
            vt_us: 0.0,
            host_ns: at,
            kind: EventKind::Begin { kind, arg: 0 },
        }
    }

    fn end(at: u64, kind: SpanKind) -> Event {
        Event {
            vt_us: 0.0,
            host_ns: at,
            kind: EventKind::End { kind },
        }
    }

    fn epoch(at: u64) -> Event {
        Event {
            vt_us: 0.0,
            host_ns: at,
            kind: EventKind::Epoch { index: 0 },
        }
    }

    fn data(tracks: Vec<(u32, TracePort, Vec<Event>)>) -> TraceData {
        TraceData {
            tracks: tracks
                .into_iter()
                .map(|(node, port, events)| TrackTrace {
                    node,
                    port,
                    events,
                    dropped: 0,
                })
                .collect(),
            final_us: Vec::new(),
        }
    }

    #[test]
    fn nested_spans_get_self_time_and_buckets_sum_to_the_last_stamp() {
        // compute 100..1000 with a fault 200..500 holding a diff-apply
        // 300..400; uncovered app time before 100 and until 1100.
        let t = data(vec![(
            0,
            TracePort::App,
            vec![
                begin(100, SpanKind::Compute),
                begin(200, SpanKind::Fault),
                begin(300, SpanKind::DiffApply),
                end(400, SpanKind::DiffApply),
                end(500, SpanKind::Fault),
                end(1000, SpanKind::Compute),
                epoch(1100),
            ],
        )]);
        let f = fold(&t).unwrap();
        assert_eq!(f.get(Bucket::TmkDiffApply), 100);
        assert_eq!(f.get(Bucket::TmkFault), 200, "300 minus the nested 100");
        assert_eq!(f.get(Bucket::AppsCompute), 100 + 100 + 500 + 100);
        assert_eq!(f.total_ns(), 1100, "sum identity");
        assert_eq!(f.events, 7);
    }

    #[test]
    fn a_gap_across_tracks_is_charged_to_the_track_that_ran_first() {
        // Node 1's service loop records at 50, 150 and 400; node 0
        // blocks in a barrier at 100 and leaves the wait at 450.
        let t = data(vec![
            (
                0,
                TracePort::App,
                vec![
                    begin(100, SpanKind::BarrierWait),
                    end(450, SpanKind::BarrierWait),
                    epoch(500),
                ],
            ),
            (
                1,
                TracePort::Service,
                vec![epoch(50), epoch(150), epoch(400)],
            ),
        ]);
        let f = fold(&t).unwrap();
        // 100→150 follows node 0's Begin: its wait span (the switch out).
        assert_eq!(f.get(Bucket::Sp2simBlocked), 50);
        // 0→50 is the service track's start-up; 150→400 and 400→450
        // follow a service event — the switch back to node 0 is
        // charged to the side that ran first.
        assert_eq!(f.get(Bucket::TmkService), 50 + 250 + 50);
        // 50→100 is node 0's start-up, 450→500 follows its End.
        assert_eq!(f.get(Bucket::AppsCompute), 50 + 50);
        assert_eq!(f.total_ns(), 500);
    }

    #[test]
    fn the_gap_before_a_tracks_first_event_is_its_own_start_up() {
        // Node 0 blocks at 100; node 1 then initialises its arrays for
        // 800 ns before recording anything. That is app time, not wait.
        let t = data(vec![
            (
                0,
                TracePort::App,
                vec![
                    begin(100, SpanKind::BarrierWait),
                    end(1000, SpanKind::BarrierWait),
                ],
            ),
            (1, TracePort::App, vec![epoch(900), epoch(950)]),
        ]);
        let f = fold(&t).unwrap();
        assert_eq!(f.get(Bucket::Sp2simBlocked), 0);
        assert_eq!(f.get(Bucket::AppsCompute), 1000);
    }

    #[test]
    fn unbalanced_spans_are_rejected() {
        let crossed = data(vec![(
            0,
            TracePort::App,
            vec![
                begin(1, SpanKind::Fault),
                begin(2, SpanKind::Publish),
                end(3, SpanKind::Fault),
            ],
        )]);
        assert!(fold(&crossed).unwrap_err().contains("innermost"));
        let stray = data(vec![(0, TracePort::App, vec![end(1, SpanKind::Fault)])]);
        assert!(fold(&stray).is_err());
        let open = data(vec![(0, TracePort::App, vec![begin(1, SpanKind::Inspect)])]);
        assert!(fold(&open).unwrap_err().contains("never closed"));
    }

    #[test]
    fn dropped_events_are_reported() {
        let mut t = data(vec![(0, TracePort::App, vec![epoch(1), epoch(2)])]);
        t.tracks[0].dropped = 3;
        assert_eq!(fold(&t).unwrap().dropped, 3);
    }
}
