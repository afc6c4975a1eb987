//! Gates on the sweep product (`BENCH_sweep.json`).
//!
//! Two properties make the trajectory file trustworthy:
//!
//! 1. **Schema round-trip** — a document built from real runs renders
//!    to JSON and parses back identically, so CI's `--check` validation
//!    and the committed artifact can never drift apart.
//! 2. **Determinism** — the *simulated* columns (virtual time,
//!    messages, bytes) of every cell are identical across runs. Host
//!    columns (wall-clock) and the arena hit/miss split are explicitly
//!    excluded: they measure the host, not the simulation.

use apps::RunSpec;
use harness::bench_sweep::{grid, measure, run_grid, SCHEMA};
use harness::SweepDoc;

/// A tiny grid: every app × both protocols at a small scale — the
/// smoke grid's shape, scaled to test budget.
fn tiny_grid() -> Vec<RunSpec> {
    grid(8, &[0.02], &[512])
}

#[test]
fn real_sweep_round_trips_through_json() {
    let doc = SweepDoc {
        cells: run_grid(&tiny_grid()),
    };
    assert_eq!(doc.cells.len(), 12, "6 apps x 2 protocols");
    let text = doc.render();
    assert!(text.contains(SCHEMA));
    let back = SweepDoc::parse(&text).expect("rendered document re-parses");
    assert_eq!(back, doc, "schema round-trip is lossless");
    // Every cell actually simulated something.
    for c in &doc.cells {
        assert!(c.time_us > 0.0, "{}/{} ran", c.app, c.protocol);
        assert!(c.messages > 0, "{}/{} communicated", c.app, c.protocol);
        // The v2 breakdown columns come from a real trace, not zeros.
        assert!(c.wait_us > 0.0, "{}/{} waited", c.app, c.protocol);
        assert!(c.service_us > 0.0, "{}/{} serviced", c.app, c.protocol);
        // The v3 causal columns: a real critical path at least as long
        // as the slowest node's virtual time, a wait share in (0, 1],
        // and a hottest page (every app faults on shared pages).
        assert!(
            c.critical_path_us >= c.time_us,
            "{}/{} path {} covers the run {}",
            c.app,
            c.protocol,
            c.critical_path_us,
            c.time_us
        );
        assert!(
            c.cp_wait_share > 0.0 && c.cp_wait_share <= 1.0,
            "{}/{} wait share {}",
            c.app,
            c.protocol,
            c.cp_wait_share
        );
        assert!(
            c.hot_page >= 0,
            "{}/{} has a hottest page",
            c.app,
            c.protocol
        );
    }
}

#[test]
fn sequential_sweep_is_deterministic() {
    let a = run_grid(&tiny_grid());
    let b = run_grid(&tiny_grid());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.app, y.app);
        assert_eq!(x.protocol, y.protocol);
        // The simulated columns are the deterministic contract.
        assert_eq!(
            x.time_us, y.time_us,
            "{}/{} virtual time",
            x.app, x.protocol
        );
        assert_eq!(x.messages, y.messages, "{}/{} messages", x.app, x.protocol);
        assert_eq!(x.bytes, y.bytes, "{}/{} bytes", x.app, x.protocol);
        // The trace-derived breakdown columns are simulated quantities
        // too: virtual-time sums, bit-stable.
        assert_eq!(x.wait_us, y.wait_us, "{}/{} wait", x.app, x.protocol);
        assert_eq!(
            x.service_us, y.service_us,
            "{}/{} service",
            x.app, x.protocol
        );
        // So are the v3 causal columns: path length, wait share, and
        // the argmax page/lock sites (deterministic tie-breaks).
        assert_eq!(
            x.critical_path_us, y.critical_path_us,
            "{}/{} critical path",
            x.app, x.protocol
        );
        assert_eq!(
            x.cp_wait_share, y.cp_wait_share,
            "{}/{} wait share",
            x.app, x.protocol
        );
        assert_eq!(x.hot_page, y.hot_page, "{}/{} hot page", x.app, x.protocol);
        assert_eq!(x.hot_lock, y.hot_lock, "{}/{} hot lock", x.app, x.protocol);
    }
}

#[test]
fn arena_recycles_at_steady_state() {
    // The scratch arena's point: misses are bounded by the peak number
    // of concurrently-live twins (they only happen while the pool is
    // still warming), while hits grow with every epoch after that. A
    // multi-epoch Jacobi run must therefore recycle more twins than it
    // allocates.
    let cell = measure(&RunSpec {
        scale: 0.1,
        ..tiny_grid()[0]
    });
    assert!(
        cell.arena_hits > cell.arena_misses,
        "recycling should dominate allocation: {} hits vs {} misses",
        cell.arena_hits,
        cell.arena_misses
    );
    assert!(cell.arena_peak_bytes > 0, "arena parked at least one twin");
}
