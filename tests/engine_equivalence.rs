//! Engine equivalence: the threaded and sequential execution engines
//! must compute the *same simulation*.
//!
//! Both engines share every virtual-time code path; what differs is
//! who runs the node code when. Three tiers of guarantees follow, and
//! each is pinned here:
//!
//! 1. **Always identical:** message and byte counts, per-kind, plus all
//!    computed results/checksums — these are order-insensitive.
//! 2. **Identical wherever virtual time is schedule-independent:**
//!    elapsed `VTime`, bitwise. This covers all message-passing
//!    programs (receives match on explicit sources/tags) and DSM
//!    configurations without concurrent service-link contention (e.g.
//!    two-node runs, where each service queue has a single client).
//! 3. **Deterministic on the sequential engine, always:** repeated runs
//!    are byte-for-byte identical even where the threaded engine's
//!    wall-clock scheduling would tie-break virtual-time races
//!    differently run to run.

use apps::{AppId, RunSpec, Version};
use sp2sim::EngineKind;

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
    let (t, expect) = quickstart(EngineKind::Threaded, 2);
    let (s, _) = quickstart(EngineKind::Sequential, 2);
    assert_eq!(t.elapsed.to_bits(), s.elapsed.to_bits(), "elapsed VTime");
    assert_eq!(t.stats.msgs, s.stats.msgs, "message counts per kind");
    assert_eq!(t.stats.bytes, s.stats.bytes, "byte counts per kind");
    for r in t.results.iter().chain(&s.results) {
        assert_eq!(r.to_bits(), expect, "computed result");
    }
}

#[test]
fn quickstart_wider_runs_agree_on_traffic_and_results() {
    // At 4+ nodes concurrent diff requests contend for the server's
    // link, and the threaded engine resolves the contention order by
    // wall-clock — elapsed may differ between engines by the queueing
    // of those responses (bounded by a few occupancies). Traffic and
    // results never may.
    let (t, expect) = quickstart(EngineKind::Threaded, 4);
    let (s, _) = quickstart(EngineKind::Sequential, 4);
    assert_eq!(t.stats.msgs, s.stats.msgs, "message counts per kind");
    assert_eq!(t.stats.bytes, s.stats.bytes, "byte counts per kind");
    for r in t.results.iter().chain(&s.results) {
        assert_eq!(r.to_bits(), expect, "computed result");
    }
    let rel = (t.elapsed.us() - s.elapsed.us()).abs() / s.elapsed.us();
    assert!(
        rel < 0.05,
        "elapsed beyond service-contention noise: threaded {} vs sequential {}",
        t.elapsed,
        s.elapsed
    );
}

/// Mini Jacobi through the DSM on two nodes: the full TreadMarks
/// protocol (twins, diffs, barrier manager) with single-client service
/// queues — bitwise engine-equivalent.
#[test]
fn mini_jacobi_dsm_bitwise_equal_across_engines() {
    let run = |engine| {
        RunSpec::new(AppId::Jacobi, Version::Tmk, 2, 0.03)
            .on(engine)
            .run()
    };
    let t = run(EngineKind::Threaded);
    let s = run(EngineKind::Sequential);
    assert_eq!(t.time_us.to_bits(), s.time_us.to_bits(), "elapsed VTime");
    assert_eq!(t.stats.msgs, s.stats.msgs, "message counts per kind");
    assert_eq!(t.stats.bytes, s.stats.bytes, "byte counts per kind");
    assert_eq!(t.checksum, s.checksum, "numerical results");
    assert_eq!(t.dsm, s.dsm, "DSM protocol statistics");
}

/// Mini Jacobi as message passing on the paper's eight nodes: fully
/// schedule-independent, so bitwise equal on both program versions.
#[test]
fn mini_jacobi_message_passing_bitwise_equal_across_engines() {
    for v in [Version::Pvme, Version::Xhpf] {
        let run = |engine| RunSpec::new(AppId::Jacobi, v, 8, 0.03).on(engine).run();
        let t = run(EngineKind::Threaded);
        let s = run(EngineKind::Sequential);
        assert_eq!(t.time_us.to_bits(), s.time_us.to_bits(), "{v:?} elapsed");
        assert_eq!(t.stats.msgs, s.stats.msgs, "{v:?} message counts");
        assert_eq!(t.stats.bytes, s.stats.bytes, "{v:?} byte counts");
        assert_eq!(t.checksum, s.checksum, "{v:?} results");
    }
}

/// Repeated sequential-engine runs are byte-for-byte identical, even on
/// configurations where the threaded engine is visibly nondeterministic
/// (4-node quickstart, 4-node compiler-generated Jacobi).
#[test]
fn sequential_engine_repeated_runs_are_bitwise_identical() {
    let (a, _) = quickstart(EngineKind::Sequential, 4);
    let (b, _) = quickstart(EngineKind::Sequential, 4);
    assert_eq!(a.elapsed.to_bits(), b.elapsed.to_bits());
    assert_eq!(a.stats.msgs, b.stats.msgs);
    assert_eq!(a.stats.bytes, b.stats.bytes);
    let ra: Vec<u64> = a.results.iter().map(|r| r.to_bits()).collect();
    let rb: Vec<u64> = b.results.iter().map(|r| r.to_bits()).collect();
    assert_eq!(ra, rb);

    let run = || RunSpec::new(AppId::Jacobi, Version::Spf, 4, 0.03).run();
    let x = run();
    let y = run();
    assert_eq!(x.time_us.to_bits(), y.time_us.to_bits());
    assert_eq!(x.stats.msgs, y.stats.msgs);
    assert_eq!(x.stats.bytes, y.stats.bytes);
    assert_eq!(x.checksum, y.checksum);
    assert_eq!(x.dsm, y.dsm);
}

/// The sequential engine must beat the threaded engine in wall-clock
/// time on the 8-node quickstart: no thread spawns, no channels, no
/// futex waits. Medians over several runs keep scheduler noise out.
#[test]
fn sequential_engine_is_faster_wall_clock_on_8_node_quickstart() {
    let median_secs = |engine| {
        let mut times: Vec<f64> = (0..9)
            .map(|_| {
                let t0 = std::time::Instant::now();
                let (out, _) = quickstart(engine, 8);
                std::hint::black_box(out.results);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        times[times.len() / 2]
    };
    let threaded = median_secs(EngineKind::Threaded);
    let sequential = median_secs(EngineKind::Sequential);
    assert!(
        sequential < threaded,
        "sequential engine must be measurably faster: {:.3}ms vs threaded {:.3}ms",
        sequential * 1e3,
        threaded * 1e3
    );
}
