//! Inspector/executor correctness: dynamic hints are performance-only,
//! and their cost amortizes.
//!
//! The inspector subsystem may only change *how* data moves (dynamic
//! sections driving validates, rendezvous pushes, windowed ordered
//! reductions) — never *what* the irregular applications compute. On
//! top of the `tests/cri_equivalence.rs` contract for the regular apps,
//! this suite pins:
//!
//! * dynamic-hinted IGrid and NBF match unhinted runs on **every
//!   explored schedule and both coherence protocols** (NBF bitwise —
//!   the windowed ordered reduction preserves the merge's addition
//!   sequence exactly; IGrid bitwise except the lock-order-sensitive
//!   square-sum, whose tree fold is deterministic but differently
//!   associated);
//! * the acceptance gate: IGrid SPF+CRI at 8 nodes cuts ≥ 30% of plain
//!   SPF's messages with byte-identical grid state;
//! * hinted NBF at 8 nodes is no slower than plain SPF and sends fewer
//!   bytes: the force merge sends each window part once, straight to the
//!   node that needs it;
//! * amortization: extra epochs perform **zero** additional inspections
//!   — the cached communication schedule is reused — and a map published
//!   once is walked once per node, without changing results.

use apps::{AppId, RunResult, RunSpec, Version};
use cri::Access;
use inspector::{Inspector, SharedMap};
use proptest::prelude::*;
use sp2sim::{Cluster, ClusterConfig, EngineKind};
use spf::{block_range, LoopCtl, Schedule, Spf};
use treadmarks::{ProtocolMode, Tmk, TmkConfig};

fn run(
    app: AppId,
    version: Version,
    engine: EngineKind,
    protocol: ProtocolMode,
    nprocs: usize,
    scale: f64,
) -> RunResult {
    let spec = RunSpec::new(app, version, nprocs, scale).on(engine);
    spec.protocol(protocol).run()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Compare a hinted against an unhinted checksum for `app`: NBF is
/// fully bitwise; IGrid is bitwise except component 5 (the
/// lock/tree-folded square-sum, compared to relative tolerance).
fn check_equivalent(app: AppId, spf: &RunResult, cri: &RunResult, ctx: &str) -> Result<(), String> {
    let mismatch = match app {
        AppId::Nbf => bits(&spf.checksum) != bits(&cri.checksum),
        AppId::IGrid => {
            bits(&spf.checksum[..5]) != bits(&cri.checksum[..5])
                || !apps::common::checksums_close(&spf.checksum, &cri.checksum, 1e-12)
        }
        _ => unreachable!("irregular apps only"),
    };
    if mismatch {
        Err(format!(
            "{ctx}: hinted/unhinted state differs: {:?} vs {:?}",
            spf.checksum, cri.checksum
        ))
    } else {
        Ok(())
    }
}

/// [`check_equivalent`] as a hard assertion.
fn assert_equivalent(app: AppId, spf: &RunResult, cri: &RunResult, ctx: &str) {
    if let Err(e) = check_equivalent(app, spf, cri, ctx) {
        panic!("{e}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Property: across random cluster sizes and problem scales, the
    /// dynamic-hinted irregular apps match the unhinted runs on the FIFO
    /// schedule and three seeded ones under both protocols, and the hints
    /// send fewer messages. A failure names its seed, and
    /// `tests/schedule_exploration.rs` runs the same cells under more.
    #[test]
    fn prop_irregular_dynamic_hints_are_equivalent(
        nprocs in 2usize..6,
        scale_pct in 2u32..7,
    ) {
        let scale = scale_pct as f64 / 100.0;
        for app in AppId::IRREGULAR {
            for engine in EngineKind::explore(3) {
                for protocol in ProtocolMode::ALL {
                    let spf = run(app, Version::Spf, engine, protocol, nprocs, scale);
                    let cri = run(app, Version::SpfCri, engine, protocol, nprocs, scale);
                    let ctx = format!("{app:?}/{engine}/{protocol}/{nprocs}p/{scale}");
                    if let Err(e) = check_equivalent(app, &spf, &cri, &ctx) {
                        panic!("{e}");
                    }
                    prop_assert!(
                        cri.messages < spf.messages,
                        "{}: cri {} vs spf {}",
                        ctx, cri.messages, spf.messages
                    );
                }
            }
        }
    }
}

/// The acceptance gate: IGrid SPF+CRI at 8 nodes, sequential engine,
/// scale 0.08 — ≥ 30% fewer messages than plain SPF, byte-identical
/// grid state, a demonstrably amortized inspector and, under LRC, no
/// more messages than recorded (210: a push that an older unapplied
/// notice sorts before is dropped and its page fetched on demand).
#[test]
fn igrid_cri_cuts_30_percent_at_8_nodes_with_identical_state() {
    const LRC_CRI_MAX_MESSAGES: u64 = 210;
    for protocol in ProtocolMode::ALL {
        let spf = run(
            AppId::IGrid,
            Version::Spf,
            EngineKind::Sequential,
            protocol,
            8,
            0.08,
        );
        let cri = run(
            AppId::IGrid,
            Version::SpfCri,
            EngineKind::Sequential,
            protocol,
            8,
            0.08,
        );
        assert_equivalent(AppId::IGrid, &spf, &cri, &format!("{protocol}"));
        assert!(
            (cri.messages as f64) <= 0.70 * spf.messages as f64,
            "{protocol}: >= 30% cut required: cri {} vs spf {}",
            cri.messages,
            spf.messages
        );
        if protocol == ProtocolMode::Lrc {
            assert!(
                cri.messages <= LRC_CRI_MAX_MESSAGES,
                "hinted IGrid under LRC sends {} messages, recorded bound {LRC_CRI_MAX_MESSAGES}",
                cri.messages
            );
        }
        assert!(cri.dsm.inspections > 0, "{protocol}: inspector ran");
        assert!(cri.dsm.schedule_reuse > 0, "{protocol}: schedule reused");
        assert!(cri.dsm.inspect_us > 0, "{protocol}: walk cost charged");
    }
}

/// The CRI's claim, held for NBF: at 0.2 × 8 under LRC, SPF+CRI beats
/// plain SPF in virtual time and in bytes with a bitwise-identical
/// result (≈ 84.9 vs 97.8 ms and 1 462 vs 1 746 KB). Its windowed
/// reduction sends each node only the parts of its neighbours' windows
/// that overlap its block; through a gather root every window went up
/// whole and came back as blocks, and the hinted run lost on both
/// (≈ 100.5 ms and 2 526 KB).
#[test]
fn nbf_cri_beats_spf_in_time_and_bytes_at_8_nodes() {
    let [spf, cri] = [Version::Spf, Version::SpfCri].map(|v| {
        run(
            AppId::Nbf,
            v,
            EngineKind::Sequential,
            ProtocolMode::Lrc,
            8,
            0.2,
        )
    });
    assert_equivalent(AppId::Nbf, &spf, &cri, "lrc");
    assert!(
        cri.time_us < spf.time_us,
        "SPF+CRI takes {} µs, SPF {} µs",
        cri.time_us,
        spf.time_us
    );
    assert!(
        cri.kbytes < spf.kbytes,
        "SPF+CRI sends {} KB, SPF {} KB",
        cri.kbytes,
        spf.kbytes
    );
}

/// Amortization pin: adding epochs adds **zero** inspections — every
/// additional dispatch is pure executor, served from the schedule cache
/// — while schedule reuse keeps growing. Workload parameters differ
/// only in the iteration count.
#[test]
fn second_epoch_performs_zero_inspections() {
    // IGrid.
    let spec = RunSpec::new(AppId::IGrid, Version::SpfCri, 8, 0.08);
    let mut p = apps::igrid::params(0.08);
    let short = spec.launch(&p, apps::igrid::node);
    p.iters += 4;
    let long = spec.launch(&p, apps::igrid::node);
    assert_eq!(
        short.dsm.inspections, long.dsm.inspections,
        "IGrid: extra epochs must not re-inspect"
    );
    assert!(long.dsm.schedule_reuse > short.dsm.schedule_reuse);
    assert_eq!(short.dsm.inspect_us, long.dsm.inspect_us);

    // NBF.
    let spec = RunSpec::new(AppId::Nbf, Version::SpfCri, 8, 0.03);
    let mut p = apps::nbf::params(0.03);
    let short = spec.launch(&p, apps::nbf::node);
    p.iters += 4;
    let long = spec.launch(&p, apps::nbf::node);
    assert_eq!(
        short.dsm.inspections, long.dsm.inspections,
        "NBF: extra epochs must not re-inspect"
    );
    assert!(long.dsm.schedule_reuse > short.dsm.schedule_reuse);
}

/// A published indirection map is walked exactly once per node, and the
/// executor computes the right values from the cached schedule: a
/// synthetic gather kernel (out[i] = in[map[i]]) over a reversed map,
/// dispatched twice — SharedMap publish, one inspection, one reuse.
#[test]
fn map_rebuild_reinspects_once_and_stays_correct() {
    for engine in EngineKind::explore(8) {
        let len = 512 * 4;
        let out = Cluster::run(ClusterConfig::sp2_on(4, engine), move |node| {
            let insp = Inspector::new(node);
            let tmk = Tmk::new(node, TmkConfig::default());
            let src = tmk.malloc_f64(len);
            let dst = tmk.malloc_f64(len);
            let map = SharedMap::alloc(&tmk, len);
            let spf = Spf::new(&tmk);
            let me = tmk.proc_id();
            let np = tmk.nprocs();
            let body = {
                let (tmk, map) = (&tmk, &map);
                move |ctl: &LoopCtl| {
                    let r = ctl.my_block(me, np);
                    if r.is_empty() {
                        return;
                    }
                    let m = map.local(tmk);
                    let input = tmk.read(src, 0..len);
                    let mut w = tmk.write(dst, r.clone());
                    for i in r {
                        w[i] = input[m[i] as usize];
                    }
                }
            };
            let gather = spf.register(body);
            spf.describe_inspector(gather, {
                let (tmk, map, insp) = (&tmk, &map, &insp);
                move |iters, q, nprocs| {
                    let r = block_range(q, nprocs, iters.clone());
                    if r.is_empty() {
                        return vec![];
                    }
                    let m = map.local(tmk);
                    let reads = insp.gather(r.clone().map(|i| m[i] as usize));
                    vec![
                        Access::read(src, reads),
                        Access::write(dst, cri::Section::range(r)),
                    ]
                }
            });
            let result = spf.run(|mr| {
                {
                    let mut w = mr.tmk().write(src, 0..len);
                    for i in 0..len {
                        w[i] = (i * 3) as f64;
                    }
                }
                // A reversed map, two dispatches (the second reuses).
                let rev: Vec<u32> = (0..len as u32).rev().collect();
                map.publish(mr.tmk(), &rev);
                mr.par_loop(gather, 0..len, Schedule::Block, &[]);
                mr.par_loop(gather, 0..len, Schedule::Block, &[]);
                mr.tmk().read_one(dst, 0)
            });
            let insp_count = tmk.stats_snapshot().inspections;
            let reuse = tmk.stats_snapshot().schedule_reuse;
            tmk.finish();
            (result, insp_count, reuse)
        });
        let value = out.results[0].0.expect("master result");
        assert_eq!(value, ((len - 1) * 3) as f64, "engine {engine}: reversed");
        for (q, (_, insp, reuse)) in out.results.iter().enumerate() {
            // Each node inspected its own evaluation once, and the
            // repeated dispatch reused it.
            assert_eq!(*insp, 1, "engine {engine} node {q}: one walk");
            assert!(*reuse >= 1, "engine {engine} node {q}");
        }
    }
}
