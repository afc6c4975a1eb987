//! Protocol correctness: HLRC is a *transport* change, not a semantics
//! change.
//!
//! Home-based LRC moves diffs eagerly to per-page homes and serves whole
//! pages on access misses; lazy LRC keeps diffs at their writers and
//! serves them on demand. Both implement the same release-consistency
//! contract, so the same program must converge to byte-identical shared
//! memory under either protocol — on every node, on both execution
//! engines, for all six applications. What *may* differ is the message
//! shape, and that difference is pinned too: at 8 nodes Jacobi takes
//! fewer access-miss round trips under HLRC and pays for it in eager
//! flush bytes. This extends the `tests/cri_equivalence.rs` pattern
//! (hinted vs unhinted) to the protocol axis (LRC vs HLRC).

use apps::{AppId, RunSpec, Version};
use proptest::prelude::*;
use sp2sim::{Cluster, ClusterConfig, EngineKind, MsgKind};
use spf::{LoopCtl, Schedule, Spf};
use treadmarks::{ProtocolMode, Tmk, TmkConfig};

/// A synthetic phase-regular pipeline over one shared array (the
/// `cri_equivalence` workload, unhinted): `rounds` iterations of
/// neighbour-dependent block production, under the given protocol.
/// Returns every node's final view of the whole array as bits.
fn pipeline_bits(
    protocol: ProtocolMode,
    nprocs: usize,
    len: usize,
    rounds: usize,
) -> Vec<Vec<u64>> {
    let out = Cluster::run(ClusterConfig::sp2_on(nprocs, EngineKind::Sequential), {
        move |node| {
            let tmk = Tmk::new(node, TmkConfig::default().with_protocol(protocol));
            let spf = Spf::new(&tmk);
            let a = tmk.malloc_f64(len);
            let body = {
                let tmk = &tmk;
                move |ctl: &LoopCtl| {
                    let r = ctl.my_block(tmk.proc_id(), tmk.nprocs());
                    if r.is_empty() {
                        return;
                    }
                    let round = ctl.args[0] as usize;
                    let lo = r.start.saturating_sub(17);
                    let hi = (r.end + 17).min(len);
                    // Views are windows onto the page frames, and a write
                    // view may overlap no other open view: touch the
                    // ghost-extended region (its faults are the point),
                    // then update the own block in place.
                    drop(tmk.read(a, lo..hi));
                    let mut w = tmk.write(a, r.clone());
                    for i in r {
                        w[i] += (round * 1000 + i) as f64 * 0.5;
                    }
                }
            };
            let prod = spf.register(body);
            spf.run(|m| {
                for round in 0..rounds {
                    m.par_loop(prod, 0..len, Schedule::Block, &[round as u64]);
                }
            });
            tmk.barrier(0);
            let view = tmk.read(a, 0..len);
            let bits: Vec<u64> = view.slice().iter().map(|v| v.to_bits()).collect();
            drop(view);
            tmk.finish();
            bits
        }
    });
    out.results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: for random cluster sizes, array lengths and round
    /// counts, the HLRC run's shared memory is byte-identical to the
    /// LRC run's on every node.
    #[test]
    fn prop_lrc_and_hlrc_memory_bitwise_equal(
        nprocs in 2usize..6,
        len in 200usize..4000,
        rounds in 1usize..5,
    ) {
        let lrc = pipeline_bits(ProtocolMode::Lrc, nprocs, len, rounds);
        let hlrc = pipeline_bits(ProtocolMode::Hlrc, nprocs, len, rounds);
        for (q, (l, h)) in lrc.iter().zip(&hlrc).enumerate() {
            prop_assert_eq!(l, h, "node {} memory differs", q);
        }
    }
}

/// Which checksum entries of an app's digest are pure functions of the
/// shared arrays (bit-exact across protocols) versus lock-reduction
/// accumulators, whose fold order follows lock-acquisition order and so
/// legitimately shifts when the protocol changes message timing — the
/// same discipline `tests/cross_version.rs` and `cri_equivalence.rs`
/// apply. Returns `(bitwise index range, tolerance for the rest)`.
fn comparison_mode(app: AppId) -> (std::ops::Range<usize>, f64) {
    match app {
        // Pure stencil/array programs: everything is memory content.
        AppId::Jacobi | AppId::Shallow | AppId::Mgs => (0..usize::MAX, 0.0),
        // Entries 0..2 are the lock-folded (re, im) accumulators; the
        // rest is reduction-free and must stay bit-exact.
        AppId::Fft3d => (2..usize::MAX, 1e-9),
        // Entries 3.. are the reduction triple; 0..3 digest the grid.
        AppId::IGrid => (0..3, 1e-12),
        // Forces fold under locks before positions integrate, so the
        // order reaches the arrays themselves: tolerance throughout.
        AppId::Nbf => (0..0, 1e-9),
    }
}

/// All six applications, the FIFO schedule and eight seeded ones: the SPF version's
/// shared memory under HLRC is byte-identical to LRC's — every checksum
/// entry that digests array content compares bitwise; only the
/// lock-reduction accumulators (whose combine order tracks acquisition
/// order, not memory content) use a relative tolerance.
#[test]
fn all_six_apps_byte_identical_across_protocols_and_engines() {
    const SCALE: f64 = 0.03;
    const NPROCS: usize = 4;
    for app in AppId::ALL {
        for engine in EngineKind::explore(8) {
            let spec = RunSpec::new(app, Version::Spf, NPROCS, SCALE).on(engine);
            let lrc = spec.protocol(ProtocolMode::Lrc).run();
            let hlrc = spec.protocol(ProtocolMode::Hlrc).run();
            let (bitwise, tol) = comparison_mode(app);
            let n = lrc.checksum.len();
            assert_eq!(n, hlrc.checksum.len());
            for i in 0..n {
                let (l, h) = (lrc.checksum[i], hlrc.checksum[i]);
                if bitwise.contains(&i) {
                    assert_eq!(
                        l.to_bits(),
                        h.to_bits(),
                        "{} on {engine}, entry {i}: memory must be byte-identical \
                         ({l:?} vs {h:?})",
                        app.name()
                    );
                } else {
                    let close = (l - h).abs() <= tol * l.abs().max(h.abs()).max(1.0);
                    assert!(
                        close,
                        "{} on {engine}, entry {i}: accumulators must agree to {tol:e} \
                         ({l:?} vs {h:?})",
                        app.name()
                    );
                }
            }
        }
    }
}

/// The hand-coded TreadMarks versions cross the protocols too (they
/// exercise locks and private-scratch patterns the SPF shape does not),
/// under the same per-app comparison discipline.
#[test]
fn hand_coded_versions_byte_identical_across_protocols() {
    const SCALE: f64 = 0.03;
    for app in AppId::ALL {
        let spec = RunSpec::new(app, Version::Tmk, 3, SCALE);
        let lrc = spec.protocol(ProtocolMode::Lrc).run();
        let hlrc = spec.protocol(ProtocolMode::Hlrc).run();
        let (bitwise, tol) = comparison_mode(app);
        for (i, (l, h)) in lrc.checksum.iter().zip(&hlrc.checksum).enumerate() {
            if bitwise.contains(&i) {
                assert_eq!(l.to_bits(), h.to_bits(), "{} Tmk entry {i}", app.name());
            } else {
                assert!(
                    (l - h).abs() <= tol * l.abs().max(h.abs()).max(1.0),
                    "{} Tmk entry {i}: {l:?} vs {h:?}",
                    app.name()
                );
            }
        }
    }
}

/// The message-shape trade HLRC makes, pinned on Jacobi at the paper's
/// 8-node platform: fewer access-miss round trips (whole-page home
/// fetches replace per-writer diff exchanges), more update traffic
/// (eager flush bytes, which LRC does not send at all). HLRC's round
/// trips also stay within their recorded count.
#[test]
fn jacobi_8_nodes_hlrc_trades_round_trips_for_flush_bytes() {
    const HLRC_MAX_MISS_ROUND_TRIPS: u64 = 240;
    let spec = RunSpec::new(AppId::Jacobi, Version::Spf, 8, 0.08);
    let run = |protocol| spec.protocol(protocol).run();
    let lrc = run(ProtocolMode::Lrc);
    let hlrc = run(ProtocolMode::Hlrc);
    assert_eq!(
        lrc.checksum.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        hlrc.checksum
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
    );
    // Fewer fault round trips...
    assert!(
        hlrc.miss_round_trips() < lrc.miss_round_trips(),
        "HLRC {} vs LRC {} round trips",
        hlrc.miss_round_trips(),
        lrc.miss_round_trips()
    );
    assert!(
        hlrc.miss_round_trips() <= HLRC_MAX_MISS_ROUND_TRIPS,
        "HLRC {} round trips, recorded bound {HLRC_MAX_MISS_ROUND_TRIPS}",
        hlrc.miss_round_trips()
    );
    assert_eq!(lrc.stats.messages(MsgKind::PageReq), 0);
    assert_eq!(hlrc.stats.messages(MsgKind::DiffReq), 0);
    // ... bought with eager update traffic.
    assert!(hlrc.flush_bytes() > 0, "HLRC sends home flushes");
    assert_eq!(lrc.flush_bytes(), 0, "LRC never flushes to homes");
    assert!(
        hlrc.stats.bytes_of(MsgKind::HomeFlush) + hlrc.stats.bytes_of(MsgKind::PageResp)
            > lrc.stats.bytes_of(MsgKind::DiffResp),
        "update+page traffic outweighs LRC's diff responses"
    );
    // The protocol stats agree with the message counters.
    assert!(hlrc.dsm.home_flush_pages > 0);
    assert!(hlrc.dsm.page_fetches > 0);
    assert_eq!(lrc.dsm.home_flushes, 0);
    assert_eq!(lrc.dsm.page_fetches, 0);
}

/// HLRC runs are deterministic on the sequential engine: repeated
/// executions are byte-for-byte identical in time, traffic and state.
#[test]
fn hlrc_runs_are_deterministic() {
    let spec = RunSpec::new(AppId::Jacobi, Version::Spf, 4, 0.03);
    let run = || spec.protocol(ProtocolMode::Hlrc).run();
    let a = run();
    let b = run();
    assert_eq!(a.time_us.to_bits(), b.time_us.to_bits());
    assert_eq!(a.stats.msgs, b.stats.msgs);
    assert_eq!(a.stats.bytes, b.stats.bytes);
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.dsm, b.dsm);
}
