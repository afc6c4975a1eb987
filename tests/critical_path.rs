//! Causal-analysis invariants: the critical path reconstructed from
//! correlation ids must *be* the run's elapsed time, not an estimate.
//!
//! * **Sequential identity** — on the deterministic engine the
//!   backward walk telescopes through recorded event times only, so
//!   the path length equals the cluster's maximum final virtual clock
//!   **bitwise**, for every application under both protocols. Any
//!   missing edge event, mis-stamped seq, or double-counted segment
//!   breaks this exactly.
//! * **Determinism** — two traced runs yield the identical path
//!   (same segments, same attributions).
//! * **DAG well-formedness** — every receive's correlation id resolves
//!   to a producer and every dependence points backward in virtual
//!   time, which is acyclicity (virtual time is the topological order).
//! * **Seeded false sharing** — two nodes writing disjoint words of
//!   one page inside the same epoch must be flagged with the exact
//!   (page, writer-pair), and must NOT be reported as a race.
//! * **Drop surfacing** — a trace with ring-overflow loss fails the
//!   Chrome-trace validator instead of passing for complete.

use apps::{AppId, RunSpec, Version};
use harness::critical_path::{self, check_dag};
use harness::{to_chrome_trace, validate_chrome_trace};
use sp2sim::{Cluster, ClusterConfig, EngineKind, TraceData};
use treadmarks::{race, ProtocolMode, RaceLog, Tmk, TmkConfig};

fn traced(app: AppId, protocol: ProtocolMode, nprocs: usize, scale: f64) -> TraceData {
    let mut spec = RunSpec::new(app, Version::Spf, nprocs, scale).protocol(protocol);
    spec.cfg.trace = true;
    spec.run().trace.expect("traced run carries a trace")
}

/// The falsifiable tentpole invariant: path length == max final clock,
/// bit for bit, for all six applications under both protocols.
#[test]
fn sequential_path_length_equals_max_final_clock() {
    for protocol in [ProtocolMode::Lrc, ProtocolMode::Hlrc] {
        for app in AppId::ALL {
            let t = traced(app, protocol, 4, 0.05);
            let cp = critical_path::compute(&t).expect("non-empty trace");
            assert!(
                cp.exact(),
                "{app:?} {protocol:?}: walk not exact (contiguous={} unresolved={} lossy={} end={})",
                cp.contiguous,
                cp.unresolved,
                cp.lossy,
                cp.end_us
            );
            let t_max = t.final_us.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(
                cp.length_us().to_bits(),
                t_max.to_bits(),
                "{app:?} {protocol:?}: path {} != max final clock {}",
                cp.length_us(),
                t_max
            );
            // Slack is zero exactly on the path-ending node.
            assert_eq!(cp.slack_us[cp.start_node as usize], 0.0);
            assert!(cp.slack_us.iter().all(|&s| s >= 0.0));
            // The path crosses nodes on any real multi-node run.
            assert!(
                cp.segments.iter().any(|s| s.node != cp.start_node)
                    || cp.segments.iter().all(|s| s.node == 0),
                "{app:?} {protocol:?}: single-node path on a 4-node run"
            );
        }
    }
}

/// Two identical runs reconstruct the identical path.
#[test]
fn critical_path_is_deterministic() {
    let a = traced(AppId::Jacobi, ProtocolMode::Hlrc, 4, 0.05);
    let b = traced(AppId::Jacobi, ProtocolMode::Hlrc, 4, 0.05);
    let (pa, pb) = (
        critical_path::compute(&a).unwrap(),
        critical_path::compute(&b).unwrap(),
    );
    assert_eq!(pa, pb);
    assert!(!pa.segments.is_empty());
}

/// Every receive resolves to a producer; every dependence points
/// backward in virtual time.
#[test]
fn happens_before_dag_is_well_formed() {
    for protocol in [ProtocolMode::Lrc, ProtocolMode::Hlrc] {
        let t = traced(AppId::Mgs, protocol, 4, 0.05);
        let dag = check_dag(&t);
        assert!(dag.ok(), "{protocol:?}: {:?}", dag.violations);
        assert!(dag.recvs > 0, "{protocol:?}: no receives examined");
        assert!(dag.matched_send > 0, "{protocol:?}: no matched sends");
        assert!(dag.edges > 0, "{protocol:?}: no causal edges recorded");
    }
}

/// Two nodes write *disjoint* words of the same page in the same epoch:
/// not a race (the detector must stay silent) but exactly what the
/// false-sharing diagnostic exists to flag — with the precise page and
/// writer pair.
#[test]
fn seeded_false_sharing_is_flagged_with_exact_pair() {
    let out = Cluster::run(ClusterConfig::sp2_on(2, EngineKind::Sequential), |node| {
        let tmk = Tmk::new(node, TmkConfig::default().with_race_detection(true));
        let a = tmk.malloc_f64(8);
        let me = tmk.proc_id();
        tmk.write_one(a, me, (me + 1) as f64);
        tmk.barrier(0);
        tmk.finish();
        tmk.take_race_log().expect("detection was on")
    });
    let logs: Vec<RaceLog> = out.results.to_vec();
    assert!(
        race::detect(&logs).is_empty(),
        "disjoint words must not be a race"
    );
    let fs = race::detect_false_sharing(&logs);
    assert!(
        fs.iter().any(|f| f.page == 0 && f.writers == (0, 1)),
        "seeded false sharing not flagged: {fs:?}"
    );
}

/// The sharing profile of the same seeded program, per node, exactly:
/// pages ascending, the page nobody touched omitted, and the writer
/// statistics present for a page a node holds only notices for (node 0
/// never touches page 1). Pinned because the writer windows are kept
/// apart from the event counters during the run and joined here.
#[test]
fn seeded_false_sharing_profile_is_exact() {
    let out = Cluster::run(ClusterConfig::sp2_on(2, EngineKind::Sequential), |node| {
        let tmk = Tmk::new(node, TmkConfig::default());
        let a = tmk.malloc_f64(8);
        let b = tmk.malloc_f64(8);
        let _untouched = tmk.malloc_f64(8);
        let me = tmk.proc_id();
        tmk.write_one(a, me, (me + 1) as f64);
        tmk.barrier(0);
        if me == 1 {
            tmk.write_one(b, 0, 5.0);
        }
        tmk.barrier(1);
        let seen = if me == 0 { tmk.read_one(a, 1) } else { 0.0 };
        tmk.finish();
        (seen, tmk.take_sharing())
    });
    assert_eq!(out.results[0].0, 2.0);
    // (page, faults, diffs created, diff words, diffs applied, writer
    // mask, max writers in one epoch)
    let rows = |node: usize| -> Vec<(usize, u64, u64, u64, u64, u64, u32)> {
        let pages = &out.results[node].1.pages;
        pages
            .iter()
            .map(|(p, f)| {
                (
                    *p,
                    f.faults,
                    f.diffs_created,
                    f.diff_words_created,
                    f.diffs_applied,
                    f.writer_mask,
                    f.max_epoch_writers,
                )
            })
            .collect()
    };
    // Node 0's range on page 0 is closed by node 1's notice for it at
    // the first barrier: one 1-word diff, created at notice time.
    assert_eq!(
        rows(0),
        [(0, 1, 1, 1, 1, 0b11, 2), (1, 0, 0, 0, 0, 0b10, 1)]
    );
    assert_eq!(
        rows(1),
        [(0, 0, 1, 1, 0, 0b11, 2), (1, 0, 0, 0, 0, 0b10, 1)]
    );
}

/// A lossy trace is rejected by the validator: truncated data can
/// never silently pass for complete.
#[test]
fn dropped_events_fail_validation() {
    let mut t = traced(AppId::Jacobi, ProtocolMode::Lrc, 2, 0.05);
    assert!(validate_chrome_trace(&to_chrome_trace(&t, None)).is_ok());
    t.tracks[0].dropped = 5;
    let err = validate_chrome_trace(&to_chrome_trace(&t, None)).unwrap_err();
    assert!(err.contains("dropped"), "unexpected error: {err}");
    let cp = critical_path::compute(&t).unwrap();
    assert!(cp.lossy && !cp.exact());
}
