//! Race-detection mode: the seeded positive, the six-app zero-race
//! gate, and the zero-overhead pin.
//!
//! The detector records per-word write provenance at every flush
//! (`TmkConfig::detect_races`) and flags pairs of vector-clock-
//! concurrent intervals that wrote the same word — violations of the
//! multiple-writer protocol's "concurrent intervals write disjoint
//! words" contract. Three things must hold:
//!
//! * a deliberately racy program is flagged with the exact `(page,
//!   word, writer pair, interval pair)`, on every explored schedule;
//! * all six applications, under both protocols and every explored
//!   schedule, are race-free — the contract the paper's results
//!   implicitly rest on;
//! * detection is a pure observer: turning it on changes no simulated
//!   observable (memory bytes, virtual time, traffic, DSM statistics).

use apps::{AppId, RunSpec, Version};
use sp2sim::{Cluster, ClusterConfig, EngineKind};
use treadmarks::{race, ProtocolMode, RaceLog, Tmk, TmkConfig};

const SCALE: f64 = 0.035;

/// Two nodes write the same word of the same page in the same barrier
/// epoch — unsynchronized by construction. The detector must name the
/// exact word and writer pair, on every schedule, and the provenance must
/// be schedule-independent (it is captured at each node's own flush,
/// before any remote diff can land).
#[test]
fn seeded_race_is_flagged_with_the_exact_writer_pair() {
    for engine in EngineKind::explore(16) {
        let out = Cluster::run(ClusterConfig::sp2_on(2, engine), |node| {
            let tmk = Tmk::new(node, TmkConfig::default().with_race_detection(true));
            let a = tmk.malloc_f64(8);
            let me = tmk.proc_id();
            tmk.write_one(a, 0, (me + 1) as f64);
            tmk.barrier(0);
            let v = tmk.read_one(a, 0);
            tmk.finish();
            (v, tmk.take_race_log().expect("detection was on"))
        });
        let logs: Vec<RaceLog> = out.results.iter().map(|(_, l)| l.clone()).collect();
        let report = race::detect(&logs);
        assert_eq!(report.len(), 1, "engine {engine}: exactly one race");
        let r = &report[0];
        assert_eq!(r.page, 0, "engine {engine}: first allocated page");
        assert_eq!(r.word, 0, "engine {engine}: the contended word");
        assert_eq!(r.words, 1, "engine {engine}: one overlapping word");
        assert_eq!(r.writers, (0, 1), "engine {engine}");
        assert_eq!(r.intervals, (1, 1), "engine {engine}: both first intervals");
        // A racy read is allowed to see either write — that is what
        // makes it a race — but never anything else.
        for (v, _) in &out.results {
            assert!(*v == 1.0 || *v == 2.0, "engine {engine}: read {v}");
        }
    }
}

/// Writes to the same word ordered by a lock (grants carry intervals,
/// so the second writer's interval dominates the first's) must NOT be
/// flagged: the detector follows happens-before, not the order the
/// schedule happened to run things in.
#[test]
fn lock_ordered_writes_are_not_flagged() {
    for engine in EngineKind::explore(16) {
        let out = Cluster::run(ClusterConfig::sp2_on(2, engine), |node| {
            let tmk = Tmk::new(node, TmkConfig::default().with_race_detection(true));
            let a = tmk.malloc_f64(8);
            let me = tmk.proc_id();
            tmk.acquire(0);
            let v = tmk.read_one(a, 0);
            tmk.write_one(a, 0, v + (me + 1) as f64);
            tmk.release(0);
            tmk.barrier(0);
            let total = tmk.read_one(a, 0);
            tmk.finish();
            (total, tmk.take_race_log().expect("detection was on"))
        });
        let logs: Vec<RaceLog> = out.results.iter().map(|(_, l)| l.clone()).collect();
        assert!(
            race::detect(&logs).is_empty(),
            "engine {engine}: lock-ordered writes flagged"
        );
        // And the lock makes the outcome deterministic: both increments
        // land, every node reads the sum.
        for (total, _) in &out.results {
            assert_eq!(*total, 3.0, "engine {engine}");
        }
    }
}

/// The zero-race gate: all six applications, both protocols, the FIFO
/// schedule and four seeded ones. The multiple-writer contract — concurrent intervals write
/// disjoint words — is what makes every equivalence claim in this
/// repository meaningful; any overlap here is a genuine application or
/// runtime bug, not test noise.
#[test]
fn six_apps_report_zero_races_under_both_protocols_and_engines() {
    for app in AppId::ALL {
        for protocol in ProtocolMode::ALL {
            for engine in EngineKind::explore(4) {
                let mut spec = RunSpec::new(app, Version::Spf, 4, SCALE).on(engine);
                spec.cfg.detect_races = true;
                let r = spec.protocol(protocol).run();
                assert!(
                    r.race_report.is_empty(),
                    "{app:?}/{protocol}/{engine}: {:?}",
                    r.race_report
                );
            }
        }
    }
}

/// Detection is a pure observer: on vs off, the same run on the same
/// schedule produces byte-identical memory (checksums) and
/// bit-identical virtual time, traffic, and DSM statistics. The
/// recording is host-side only; no message, clock advance, counter or
/// preemption point depends on it. Across schedules memory is still
/// byte-identical (traffic and time may differ).
#[test]
fn detection_is_zero_overhead_on_simulated_observables() {
    for protocol in ProtocolMode::ALL {
        let run = |engine, detect: bool| {
            let mut spec = RunSpec::new(AppId::Jacobi, Version::Tmk, 4, SCALE).on(engine);
            spec.cfg.detect_races = detect;
            spec.protocol(protocol).run()
        };
        let fifo = run(EngineKind::Sequential, true);
        for engine in EngineKind::explore(8) {
            let what = format!("{protocol} on {engine}");
            let on = run(engine, true);
            let off = run(engine, false);
            assert_eq!(on.checksum, off.checksum, "{what}: memory bytes");
            assert_eq!(on.time_us.to_bits(), off.time_us.to_bits(), "{what}: time");
            assert_eq!(on.stats.msgs, off.stats.msgs, "{what}: message counts");
            assert_eq!(on.stats.bytes, off.stats.bytes, "{what}: byte counts");
            assert_eq!(on.dsm, off.dsm, "{what}: DSM statistics");
            assert_eq!(on.checksum, fifo.checksum, "{what}: cross-schedule memory");
        }
    }
}

/// The detection-mode plumbing end to end: an application run with
/// detection on carries per-node logs through `NodeOut` into
/// `RunResult.race_report`, and a run
/// with detection off carries nothing.
#[test]
fn run_result_surfaces_the_report() {
    let off = RunSpec::new(AppId::Jacobi, Version::Spf, 4, SCALE);
    let mut on = off;
    on.cfg.detect_races = true;
    let r = on.run();
    assert!(r.race_report.is_empty(), "Jacobi is race-free");
    let off = off.run();
    assert!(off.race_report.is_empty());
}
