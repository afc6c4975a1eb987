//! Observability invariants: tracing must be a pure observer, and what
//! it observes must add up.
//!
//! * **Overhead gate** — with tracing disabled nothing changes; with
//!   tracing *enabled* the simulated quantities still do not move:
//!   recording advances no virtual clock and sends no message, so
//!   memory contents are byte-identical on both engines and every
//!   deterministic (sequential-engine) quantity is bit-identical.
//! * **Determinism** — on the sequential engine two traced runs yield
//!   identical event streams modulo host wall-clock stamps.
//! * **Breakdown identity** — per node, the analyzer's categories sum
//!   to the node's final virtual clock: `covered compute + wait +
//!   service + wire + uncovered = total`, with the *uncovered* share
//!   small on fully instrumented SPF runs (the falsifiable part — an
//!   uninstrumented sync path shows up as uncovered time here).
//! * **Perfetto invariants** — exported Chrome-trace JSON survives a
//!   render/parse round trip and passes the validator (monotone
//!   per-track timestamps, balanced B/E nesting).

use apps::{AppId, RunResult, RunSpec, Version};
use harness::trace_analysis::{analyze, to_chrome_trace, validate_chrome_trace};
use harness::Json;
use sp2sim::{EngineKind, TraceData};
use treadmarks::ProtocolMode;

fn run_jacobi(engine: EngineKind, protocol: ProtocolMode, trace: bool) -> RunResult {
    let mut spec = RunSpec::new(AppId::Jacobi, Version::Spf, 4, 0.05).on(engine);
    spec.cfg.trace = trace;
    spec.protocol(protocol).run()
}

/// Strip host wall-clock stamps, leaving only simulated content.
fn scrub(mut t: TraceData) -> TraceData {
    for track in &mut t.tracks {
        for e in &mut track.events {
            *e = e.scrubbed();
        }
    }
    t
}

/// Tracing changes nothing simulated, on any schedule: a run is
/// deterministic given its seed and the recorder adds no preemption
/// point, so memory (checksums), virtual time, message counts and
/// payload bytes must all be bit-identical with tracing on and off.
#[test]
fn tracing_disabled_and_enabled_agree_on_simulated_output() {
    for protocol in [ProtocolMode::Lrc, ProtocolMode::Hlrc] {
        for engine in EngineKind::explore(8) {
            let off = run_jacobi(engine, protocol, false);
            let on = run_jacobi(engine, protocol, true);
            assert!(off.trace.is_none(), "untraced run carries no trace");
            assert!(on.trace.is_some(), "traced run carries a trace");
            let bits =
                |r: &RunResult| -> Vec<u64> { r.checksum.iter().map(|v| v.to_bits()).collect() };
            assert_eq!(
                bits(&off),
                bits(&on),
                "{engine} {protocol:?}: tracing changed memory contents"
            );
            let what = format!("{engine} {protocol:?}");
            assert_eq!(off.time_us.to_bits(), on.time_us.to_bits(), "{what} time");
            assert_eq!(off.messages, on.messages, "{what} messages");
            assert_eq!(off.kbytes, on.kbytes, "{what} bytes");
            assert_eq!(off.stats, on.stats, "{what} per-kind stats");
        }
    }
}

/// Two sequential-engine traced runs produce identical event streams
/// once host wall-clock stamps are scrubbed: same tracks, same events,
/// same virtual timestamps, same final clocks.
#[test]
fn sequential_trace_streams_are_deterministic() {
    let a = run_jacobi(EngineKind::Sequential, ProtocolMode::Lrc, true);
    let b = run_jacobi(EngineKind::Sequential, ProtocolMode::Lrc, true);
    let (ta, tb) = (scrub(a.trace.unwrap()), scrub(b.trace.unwrap()));
    assert!(ta.event_count() > 0, "trace is non-trivial");
    assert_eq!(ta, tb);
}

/// Per-node identity on real runs, both protocols: the four categories
/// plus the uncovered remainder reconstruct the node's final virtual
/// clock, every category is actually exercised, and the uncovered share
/// stays small — SPF brackets its loop bodies with Compute spans, so
/// time leaking out of spans means an uninstrumented runtime path.
#[test]
fn breakdown_identity_holds_per_node_on_both_protocols() {
    for protocol in [ProtocolMode::Lrc, ProtocolMode::Hlrc] {
        let r = run_jacobi(EngineKind::Sequential, protocol, true);
        let a = analyze(r.trace.as_ref().unwrap());
        assert!(!a.lossy(), "{protocol:?}: ring buffers overflowed");
        assert_eq!(a.nodes.len(), 4);
        for n in &a.nodes {
            assert_eq!(
                n.unmatched, 0,
                "{protocol:?} node {}: unmatched spans",
                n.node
            );
            let rebuilt = n.accounted_us() + n.uncovered_us;
            let residual = (rebuilt - n.total_us).abs();
            assert!(
                residual <= 1e-6 * n.total_us.max(1.0),
                "{protocol:?} node {}: identity residual {residual} of {}",
                n.node,
                n.total_us
            );
            assert!(n.covered_compute_us > 0.0, "{protocol:?}: no compute spans");
            assert!(n.wait_us > 0.0, "{protocol:?}: no wait time");
            assert!(n.service_us > 0.0, "{protocol:?}: no service time");
            assert!(n.wire_us > 0.0, "{protocol:?}: no wire time");
            // Non-vacuous: explicit spans must cover the overwhelming
            // share of the clock on an instrumented SPF run.
            assert!(
                n.uncovered_us <= 0.05 * n.total_us,
                "{protocol:?} node {}: uncovered {} of {}",
                n.node,
                n.uncovered_us,
                n.total_us
            );
        }
        // The epoch bins are the same self-times, cut differently: their
        // category sums agree with the per-node sums (nothing fell
        // outside the bins; tolerance covers summation order only).
        let close = |x: f64, y: f64| (x - y).abs() <= 1e-6 * x.abs().max(y.abs()).max(1.0);
        let esum = |f: fn(&harness::EpochBreakdown) -> f64| a.epochs.iter().map(f).sum::<f64>();
        assert!(!a.epochs.is_empty(), "{protocol:?}: no epoch markers");
        assert!(close(esum(|e| e.wait_us), a.wait_us()), "{protocol:?} wait");
        assert!(close(esum(|e| e.wire_us), a.wire_us()), "{protocol:?} wire");
        assert!(
            close(
                esum(|e| e.compute_us),
                a.nodes.iter().map(|n| n.covered_compute_us).sum()
            ),
            "{protocol:?} compute"
        );
        assert!(
            close(
                esum(|e| e.service_us),
                a.nodes.iter().map(|n| n.service_us).sum()
            ),
            "{protocol:?} service"
        );
    }
}

/// The exporter's output passes the Perfetto validator and survives a
/// render/parse round trip — for a regular app and for an irregular
/// SPF+CRI run (which exercises the Inspect spans and service tracks).
#[test]
fn exported_chrome_traces_validate_and_round_trip() {
    let mut igrid = RunSpec::new(AppId::IGrid, Version::SpfCri, 4, 0.05);
    igrid.cfg.trace = true;
    let runs = [
        run_jacobi(EngineKind::Sequential, ProtocolMode::Hlrc, true),
        igrid.run(),
    ];
    for r in &runs {
        let json = to_chrome_trace(r.trace.as_ref().unwrap(), None);
        validate_chrome_trace(&json).unwrap_or_else(|e| panic!("{:?}: {e}", r.app));
        let back = Json::parse(&json.render()).expect("round trip parses");
        assert_eq!(back, json, "{:?}: lossy JSON round trip", r.app);
        validate_chrome_trace(&back).expect("round-tripped trace still valid");
    }
}
