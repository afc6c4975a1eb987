//! Schedule equivalence: what every schedule of the engine computes
//! alike.
//!
//! All schedules share every virtual-time code path; what differs is
//! who runs the node code when. Three tiers of guarantees follow, and
//! each is pinned here across the FIFO schedule and seeded ones:
//!
//! 1. **Always identical:** all computed results/checksums.
//! 2. **Bitwise identical, elapsed `VTime` and traffic per kind,** for
//!    all message-passing programs (receives match on explicit
//!    sources/tags) and for two-node DSM runs, where each service queue
//!    has a single client.
//! 3. **Deterministic given the schedule, always:** repeated runs under
//!    FIFO, or under one seed, are byte-for-byte identical even where
//!    two different seeds tie-break virtual-time races differently.
//!
//! Wider DSM runs keep their results, and some of them their traffic:
//! DESIGN.md, "Schedule equivalence and determinism", lists what the
//! sweep's cells measure.

use apps::{AppId, RunSpec, Version};
use sp2sim::EngineKind;

/// Seeded schedules every tier is held on, beside FIFO.
const SEEDS: u64 = 16;

/// The quickstart workload (shared definition in `apps::demo`), plus
/// the expected per-node sum as bits.
fn quickstart(engine: EngineKind, nprocs: usize) -> (sp2sim::RunOutput<f64>, u64) {
    (
        apps::demo::quickstart(engine, nprocs),
        apps::demo::quickstart_expected().to_bits(),
    )
}

#[test]
fn quickstart_two_nodes_bitwise_equal_across_engines() {
    let (s, expect) = quickstart(EngineKind::Sequential, 2);
    for engine in EngineKind::explore(SEEDS) {
        let (t, _) = quickstart(engine, 2);
        assert_eq!(
            t.elapsed.to_bits(),
            s.elapsed.to_bits(),
            "{engine}: elapsed"
        );
        assert_eq!(t.stats, s.stats, "{engine}: traffic per kind");
        for r in &t.results {
            assert_eq!(r.to_bits(), expect, "{engine}: computed result");
        }
    }
}

#[test]
fn quickstart_wider_runs_agree_on_traffic_and_results() {
    // At 4+ nodes every reader fetches from each writer at once, and a
    // writer's service sends its responses through one link in the
    // order it serves them — the schedule's — so elapsed differs between
    // schedules (by at most 2.6 % on 4 nodes over seeds 1–8). Each page
    // here has one writer and one range, which its first request
    // freezes and every reader fetches, so the traffic cannot differ;
    // in wider runs that write a page more than once it can (DESIGN.md,
    // "Schedule equivalence and determinism").
    let (s, expect) = quickstart(EngineKind::Sequential, 4);
    for engine in EngineKind::explore(SEEDS) {
        let (t, _) = quickstart(engine, 4);
        assert_eq!(t.stats, s.stats, "{engine}: traffic per kind");
        for r in &t.results {
            assert_eq!(r.to_bits(), expect, "{engine}: computed result");
        }
        let rel = (t.elapsed.us() - s.elapsed.us()).abs() / s.elapsed.us();
        assert!(
            rel < 0.05,
            "elapsed beyond service-contention noise: {engine} {} vs sequential {}",
            t.elapsed,
            s.elapsed
        );
    }
}

/// Mini Jacobi through the DSM on two nodes: the full TreadMarks
/// protocol (twins, diffs, barrier manager) with single-client service
/// queues — bitwise schedule-independent.
#[test]
fn mini_jacobi_dsm_bitwise_equal_across_engines() {
    let run = |engine| {
        RunSpec::new(AppId::Jacobi, Version::Tmk, 2, 0.03)
            .on(engine)
            .run()
    };
    let s = run(EngineKind::Sequential);
    for engine in EngineKind::explore(SEEDS) {
        let t = run(engine);
        assert_eq!(
            t.time_us.to_bits(),
            s.time_us.to_bits(),
            "{engine}: elapsed"
        );
        assert_eq!(t.stats, s.stats, "{engine}: traffic per kind");
        assert_eq!(t.checksum, s.checksum, "{engine}: numerical results");
        assert_eq!(t.dsm, s.dsm, "{engine}: DSM protocol statistics");
    }
}

/// Mini Jacobi as message passing on the paper's eight nodes: fully
/// schedule-independent, so bitwise equal on both program versions.
#[test]
fn mini_jacobi_message_passing_bitwise_equal_across_engines() {
    for v in [Version::Pvme, Version::Xhpf] {
        let run = |engine| RunSpec::new(AppId::Jacobi, v, 8, 0.03).on(engine).run();
        let s = run(EngineKind::Sequential);
        for engine in EngineKind::explore(SEEDS) {
            let t = run(engine);
            assert_eq!(t.time_us.to_bits(), s.time_us.to_bits(), "{v:?} {engine}");
            assert_eq!(t.stats, s.stats, "{v:?} {engine}: traffic per kind");
            assert_eq!(t.checksum, s.checksum, "{v:?} {engine}: results");
        }
    }
}

/// Repeated runs under one schedule are byte-for-byte identical — FIFO
/// and seeded alike — even on configurations where different seeds
/// visibly differ (4-node quickstart, 4-node compiler-generated Jacobi).
#[test]
fn sequential_engine_repeated_runs_are_bitwise_identical() {
    for engine in EngineKind::explore(4) {
        let (a, _) = quickstart(engine, 4);
        let (b, _) = quickstart(engine, 4);
        assert_eq!(a.elapsed.to_bits(), b.elapsed.to_bits(), "{engine}");
        assert_eq!(a.stats, b.stats, "{engine}");
        let ra: Vec<u64> = a.results.iter().map(|r| r.to_bits()).collect();
        let rb: Vec<u64> = b.results.iter().map(|r| r.to_bits()).collect();
        assert_eq!(ra, rb, "{engine}");

        let run = || {
            RunSpec::new(AppId::Jacobi, Version::Spf, 4, 0.03)
                .on(engine)
                .run()
        };
        let x = run();
        let y = run();
        assert_eq!(x.time_us.to_bits(), y.time_us.to_bits(), "{engine}");
        assert_eq!(x.stats, y.stats, "{engine}");
        assert_eq!(x.checksum, y.checksum, "{engine}");
        assert_eq!(x.dsm, y.dsm, "{engine}");
    }
}
