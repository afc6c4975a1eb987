//! Message-count laws of the §2.3 fork-join interfaces, verified exactly.
//!
//! Improved interface: one parallel loop costs `n-1` worker arrivals plus
//! `n-1` departures carrying the control variables = `2 (n-1)` messages.
//! Original interface: two full barriers (`2 · 2(n-1)`) plus two control
//! pages faulted by each worker (`2 · 2 · (n-1)` request/response pairs)
//! = `8 (n-1)` messages per loop.

use sp2sim::{Cluster, ClusterConfig};
use spf::{LoopCtl, Schedule, Spf};
use treadmarks::{Tmk, TmkConfig};

/// Cluster-wide message total after `loops` empty dispatches (before the
/// teardown barrier).
fn run_loops(cfg: TmkConfig, nprocs: usize, loops: usize) -> u64 {
    let out = Cluster::run(ClusterConfig::sp2(nprocs), move |node| {
        let tmk = Tmk::new(node, cfg);
        let spf = Spf::new(&tmk);
        let body = spf.register(|_ctl: &LoopCtl| {});
        spf.run(|m| {
            for _ in 0..loops {
                m.par_loop(body, 0..nprocs, Schedule::Block, &[]);
            }
        });
        // Snapshot after the finish barrier: it quiesces the workers'
        // teardown faults, and its own fixed traffic cancels in the
        // marginal-per-loop subtraction.
        tmk.finish();
        node.stats().snapshot().total_messages()
    });
    out.results[0]
}

/// Marginal messages per loop, excluding the first loop's startup
/// traffic (worker registration, control-page cold faults).
fn per_loop(cfg: TmkConfig, nprocs: usize) -> u64 {
    let one = run_loops(cfg, nprocs, 1);
    let many = run_loops(cfg, nprocs, 5);
    (many - one) / 4
}

#[test]
fn improved_interface_costs_2n_minus_2_per_loop() {
    for n in [2usize, 4, 8] {
        assert_eq!(
            per_loop(TmkConfig::default(), n),
            2 * (n as u64 - 1),
            "n = {n}"
        );
    }
}

#[test]
fn original_interface_costs_8n_minus_8_per_loop() {
    for n in [2usize, 4, 8] {
        assert_eq!(
            per_loop(TmkConfig::legacy_forkjoin(), n),
            8 * (n as u64 - 1),
            "n = {n}"
        );
    }
}

#[test]
fn improved_interface_is_faster() {
    let t = |cfg: TmkConfig| {
        Cluster::run(ClusterConfig::sp2(8), move |node| {
            let tmk = Tmk::new(node, cfg);
            let spf = Spf::new(&tmk);
            let body = spf.register(|_ctl: &LoopCtl| {});
            spf.run(|m| {
                for _ in 0..20 {
                    m.par_loop(body, 0..8, Schedule::Block, &[]);
                }
            });
            tmk.finish();
        })
        .elapsed
    };
    let improved = t(TmkConfig::default());
    let original = t(TmkConfig::legacy_forkjoin());
    assert!(
        original.us() > 1.5 * improved.us(),
        "original {original} vs improved {improved}"
    );
}
