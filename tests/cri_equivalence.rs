//! CRI correctness: hints are performance-only.
//!
//! The compiler–runtime interface may only change *how* data moves
//! (aggregated validates instead of page faults, pushes instead of
//! demand fetches, tree reductions instead of lock folding) — never
//! *what* ends up in shared memory. On the deterministic sequential
//! engine, hinted and unhinted executions of the same program must
//! produce byte-identical shared memory and identical application
//! results, and the hinted run must send measurably fewer messages.
//! This extends the `tests/engine_equivalence.rs` pattern to the
//! hinted/unhinted axis.

use std::ops::Range;

use apps::{AppId, RunSpec, Version};
use cri::{Access, Section};
use proptest::prelude::*;
use sp2sim::{Cluster, ClusterConfig, EngineKind, MsgKind};
use spf::{block_range, LoopCtl, Schedule, Spf};
use treadmarks::{ProtocolMode, Tmk, TmkConfig};

/// A synthetic phase-regular pipeline over one shared array: `rounds`
/// iterations of (produce blocks with neighbour-dependent values, then
/// consume ghost regions), hinted or not, under either protocol — the
/// full 2x2 grid. Returns every node's final view of the whole array as
/// bits, so the comparison is bytewise.
fn pipeline_bits(
    hinted: bool,
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
            let body_prod = {
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
            let access_prod = move |iters: &Range<usize>, me: usize, np: usize| {
                let r = block_range(me, np, iters.clone());
                if r.is_empty() {
                    return vec![];
                }
                let lo = r.start.saturating_sub(17);
                let hi = (r.end + 17).min(len);
                vec![
                    Access::read(a, Section::range(lo..hi)),
                    Access::write(a, Section::range(r)).consumed_by_loop(0, 0..len),
                ]
            };
            let prod = spf.register(body_prod);
            assert_eq!(prod, 0, "descriptor self-reference assumes id 0");
            if hinted {
                spf.hints().set(prod, access_prod);
            }
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
    /// counts, the hinted run's shared memory is byte-identical to the
    /// unhinted run's on every node — under both protocols, and the
    /// whole 2x2 grid (LRC/HLRC x hinted/unhinted) agrees bitwise.
    #[test]
    fn prop_full_grid_memory_bitwise_equal(
        nprocs in 2usize..6,
        len in 200usize..4000,
        rounds in 1usize..5,
    ) {
        let reference = pipeline_bits(false, ProtocolMode::Lrc, nprocs, len, rounds);
        for protocol in ProtocolMode::ALL {
            for hinted in [false, true] {
                if !hinted && protocol == ProtocolMode::Lrc {
                    continue; // that cell *is* the reference
                }
                let run = pipeline_bits(hinted, protocol, nprocs, len, rounds);
                for (q, (p, h)) in reference.iter().zip(&run).enumerate() {
                    prop_assert_eq!(
                        p, h,
                        "node {} memory differs ({}, hinted {})",
                        q, protocol, hinted
                    );
                }
            }
        }
    }
}

/// The acceptance experiment: on the deterministic engine at 8 nodes,
/// SPF+CRI Jacobi sends at least 30% fewer DSM messages than the SPF
/// baseline, with byte-identical shared-memory state (the checksum
/// covers the full grid plus probe points, all compared bitwise) —
/// pinned **per protocol**, so the hint machinery keeps its contract on
/// both sides of the LRC/HLRC axis, and the whole 2x2 grid converges to
/// one memory image. Under LRC the hinted run also stays within its
/// recorded message count.
#[test]
fn jacobi_cri_cuts_messages_30_percent_with_identical_state_per_protocol() {
    const LRC_CRI_MAX_MESSAGES: u64 = 494;
    let jacobi = |version| RunSpec::new(AppId::Jacobi, version, 8, 0.08);
    let engine = jacobi(Version::Spf).engine;
    let reference = jacobi(Version::Spf).run();
    let ref_bits: Vec<u64> = reference.checksum.iter().map(|v| v.to_bits()).collect();
    for protocol in ProtocolMode::ALL {
        let spf = jacobi(Version::Spf).protocol(protocol).run();
        let cri = jacobi(Version::SpfCri).protocol(protocol).run();
        let spf_bits: Vec<u64> = spf.checksum.iter().map(|v| v.to_bits()).collect();
        let cri_bits: Vec<u64> = cri.checksum.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            spf_bits, ref_bits,
            "{protocol}: unhinted state must match the LRC reference"
        );
        assert_eq!(
            spf_bits, cri_bits,
            "{protocol} on {engine}: shared-memory state must be identical"
        );
        assert!(
            (cri.messages as f64) <= 0.70 * spf.messages as f64,
            "{protocol}: CRI must cut >= 30% of messages: cri {} vs spf {}",
            cri.messages,
            spf.messages
        );
        if protocol == ProtocolMode::Lrc {
            assert!(
                cri.messages <= LRC_CRI_MAX_MESSAGES,
                "hinted Jacobi under LRC sends {} messages, recorded bound {LRC_CRI_MAX_MESSAGES}",
                cri.messages
            );
        }
    }
}

/// Shallow (13 coupled arrays, master-executed column wraps): hinted
/// equals unhinted bitwise, fewer messages.
#[test]
fn shallow_cri_identical_state_fewer_messages() {
    let spf = RunSpec::new(AppId::Shallow, Version::Spf, 8, 0.03).run();
    let cri = RunSpec::new(AppId::Shallow, Version::SpfCri, 8, 0.03).run();
    let spf_bits: Vec<u64> = spf.checksum.iter().map(|v| v.to_bits()).collect();
    let cri_bits: Vec<u64> = cri.checksum.iter().map(|v| v.to_bits()).collect();
    assert_eq!(spf_bits, cri_bits);
    assert!(cri.messages < spf.messages);
}

/// 3-D FFT uses the direct reduction, whose combine order legitimately
/// differs from lock-acquisition order: accumulators agree to relative
/// tolerance, the reduction-free probe stays bit-exact, and the hinted
/// transpose moves in far fewer messages.
#[test]
fn fft3d_cri_equivalent_results_fewer_messages() {
    let spf = RunSpec::new(AppId::Fft3d, Version::Spf, 8, 0.05).run();
    let cri = RunSpec::new(AppId::Fft3d, Version::SpfCri, 8, 0.05).run();
    assert!(apps::common::checksums_close(
        &cri.checksum,
        &spf.checksum,
        1e-9
    ));
    assert_eq!(
        cri.checksum[2..]
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        spf.checksum[2..]
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        "probe is reduction-free and must be bit-exact"
    );
    assert!((cri.messages as f64) <= 0.70 * spf.messages as f64);
    assert!(cri.dsm.direct_reduces > 0);
}

/// 3-D FFT at 0.5 × 8, where a plane fills whole pages: the init loop
/// overwrites its planes whole (a write-all touch), so the normalized
/// chunks are not pushed to it — one push per transposing pair and timed
/// iteration (280; 560 when the normalization was pushed too), and every
/// page each loop reads is pushed to it, so nothing is validated. The
/// reduction-free probe is bit-exact against the unhinted run.
#[test]
fn fft3d_cri_pushes_nothing_a_write_all_init_overwrites() {
    let spf = RunSpec::new(AppId::Fft3d, Version::Spf, 8, 0.5).run();
    let cri = RunSpec::new(AppId::Fft3d, Version::SpfCri, 8, 0.5).run();
    assert_eq!(cri.stats.messages(MsgKind::Push), 280);
    assert_eq!(cri.stats.messages(MsgKind::ValidateResp), 0);
    let bits =
        |r: &apps::RunResult| -> Vec<u64> { r.checksum[2..].iter().map(|v| v.to_bits()).collect() };
    assert_eq!(
        bits(&cri),
        bits(&spf),
        "probe is reduction-free and must be bit-exact"
    );
}

/// Hinted runs are themselves deterministic on the sequential engine:
/// repeated executions are byte-for-byte identical (traffic and state).
#[test]
fn hinted_runs_are_deterministic() {
    let run = || RunSpec::new(AppId::Jacobi, Version::SpfCri, 4, 0.03).run();
    let a = run();
    let b = run();
    assert_eq!(a.time_us.to_bits(), b.time_us.to_bits());
    assert_eq!(a.stats.msgs, b.stats.msgs);
    assert_eq!(a.stats.bytes, b.stats.bytes);
    assert_eq!(a.checksum, b.checksum);
    assert_eq!(a.dsm, b.dsm);
}
