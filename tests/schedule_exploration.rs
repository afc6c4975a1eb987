//! Schedule exploration of the protocol's historical failure cells:
//! irregular apps hinted vs unhinted, and the transpose-heavy FFT, under
//! seeded schedules that preempt a fiber at every send and around every
//! state-cell section.
//!
//! Three real bugs lived here, all found by OS-timing luck on a
//! thread-per-node engine this repository no longer has. Roughly one
//! run in two hundred diverged: a lazy diff could materialize from the
//! writer's *live* frame (fixed by serving the published image), and a
//! diff served while the page was dirty left the twin anchored at a
//! stale baseline, so the next freeze re-included already-served words
//! and rolled a concurrent writer's values back (fixed by re-anchoring
//! the twin in `DsmState::freeze`). About one NBF/HLRC run in three
//! hundred deadlocked: `Tmk::publish` dropped the state lock between
//! the flush and the home-copy buffering, so the service loop could
//! ship the interval before its own-home ranges existed, permanently
//! deferring page requests (fixed by making publish one section). And
//! the manager node's two contexts sent lock requests after the section
//! that ordered them (fixed by sending inside it). LRC applied diffs in
//! an order that did not extend happens-before, rolling words back,
//! until three rules fixed it (DESIGN.md, "The order diffs apply in";
//! `lrc_order`). `ci/mutants.sh` re-breaks each of those fixes, and the
//! rules a hinted run leans on — a write-all touch's body stores before
//! it reads, a windowed reduction folds in rank order, a superseding
//! push installs only over what it dominates — and requires this suite
//! to fail.
//!
//! A failure here is replayable: every assertion and every engine
//! diagnostic (deadlock, node panic) names the schedule seed, and
//! `RunSpec::on(EngineKind::Seeded(seed))` — `--engine seeded:N` on the
//! `dsm` command line — runs that schedule again, bit for bit. A wedge
//! is the engine's deadlock panic, at once; nothing here waits on a
//! clock.

mod lrc_order;

use std::ops::RangeInclusive;

use apps::common::checksums_close;
use apps::{AppId, RunResult, RunSpec, Version};
use sp2sim::{Cluster, ClusterConfig, EngineKind, MsgKind};
use treadmarks::{ProtocolMode, Tmk, TmkConfig};

/// Tier-1's seed budget per cell.
const TIER1: RangeInclusive<u64> = 1..=8;
/// The budget of CI's `explore` job: 8× tier-1's.
const CI: RangeInclusive<u64> = 1..=64;

/// `app` in `version` on `nprocs` processors at `scale` under
/// `protocol`, on schedule `engine`.
fn run(
    app: AppId,
    version: Version,
    nprocs: usize,
    scale: f64,
    protocol: ProtocolMode,
    engine: EngineKind,
) -> RunResult {
    run_spec(
        RunSpec::new(app, version, nprocs, scale)
            .on(engine)
            .protocol(protocol),
    )
}

/// Run `spec`. A panic out of the cluster — the engine's deadlock
/// diagnostic, a node's assertion — is raised again with the cell and
/// its schedule in front, so that it says what to replay.
fn run_spec(spec: RunSpec) -> RunResult {
    std::panic::catch_unwind(|| spec.run()).unwrap_or_else(|payload| {
        let said = said(&*payload);
        let RunSpec {
            app,
            version,
            nprocs,
            scale,
            engine,
            cfg,
        } = spec;
        let (protocol, pw) = (cfg.protocol, cfg.page_words);
        panic!(
            "{app:?} {version:?}/{protocol}/{nprocs}p/{scale}/{pw}-word pages on {engine}: {said}"
        )
    })
}

/// What a panic's `payload` says.
fn said(payload: &(dyn std::any::Any + Send)) -> &str {
    match payload.downcast_ref::<String>() {
        Some(said) => said,
        None => payload.downcast_ref::<&str>().unwrap_or(&"(no message)"),
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// One irregular cell under every seed of `seeds`: the hinted run
/// against the unhinted run of the same schedule — NBF bitwise, IGrid
/// bitwise except the tree-folded square-sum component, as in
/// `tests/inspector_equivalence.rs` — and both against the sequential
/// program.
fn irregular_cell(
    app: AppId,
    protocol: ProtocolMode,
    nprocs: usize,
    scale: f64,
    seeds: RangeInclusive<u64>,
) {
    let seq = RunSpec::new(app, Version::Seq, 1, scale).run().checksum;
    for engine in seeds.map(EngineKind::Seeded) {
        let run = |version| run(app, version, nprocs, scale, protocol, engine).checksum;
        let (spf, cri) = (run(Version::Spf), run(Version::SpfCri));
        let ctx = format!("{app:?}/{protocol}/{nprocs}p/{scale} on {engine}");
        let same = match app {
            AppId::Nbf => bits(&spf) == bits(&cri),
            AppId::IGrid => {
                bits(&spf[..5]) == bits(&cri[..5]) && checksums_close(&spf, &cri, 1e-12)
            }
            _ => unreachable!("irregular apps only"),
        };
        assert!(same, "{ctx}: hinted {cri:?} vs unhinted {spf:?}");
        for (version, got) in [("SPF", &spf), ("SPF+CRI", &cri)] {
            let close = checksums_close(got, &seq, 1e-9);
            assert!(close, "{ctx}: {version} {got:?} vs sequential {seq:?}");
        }
    }
}

/// Both irregular apps × 3–5 nodes × three scales, under both
/// protocols: every combination when `all`, else the six that the
/// thread-per-node stress loop this suite replaces cycled through
/// (iteration `i`: app `i % 2` on `3 + i % 3` nodes at scale
/// `(i / 2) % 3`).
fn irregular_cells(seeds: RangeInclusive<u64>, all: bool) {
    for (a, app) in AppId::IRREGULAR.into_iter().enumerate() {
        for n in 0..3 {
            for (s, scale) in [0.02, 0.03, 0.04].into_iter().enumerate() {
                let cycled = (0..6).any(|i| (i % 2, i % 3, i / 2 % 3) == (a, n, s));
                for protocol in ProtocolMode::ALL {
                    if all || cycled {
                        irregular_cell(app, protocol, 3 + n, scale, seeds.clone());
                    }
                }
            }
        }
    }
}

/// The transpose-heavy 3-D FFT (the heaviest barrier/serve traffic per
/// unit of compute) under both protocols: any wedge in the serve/flush
/// window is a deadlock panic naming its seed.
fn fft3d_cells(seeds: RangeInclusive<u64>) {
    let seq = RunSpec::new(AppId::Fft3d, Version::Seq, 1, 0.035).run();
    for protocol in ProtocolMode::ALL {
        for engine in seeds.clone().map(EngineKind::Seeded) {
            let r = run(AppId::Fft3d, Version::Spf, 4, 0.035, protocol, engine);
            let close = checksums_close(&r.checksum, &seq.checksum, 1e-9);
            let ctx = format!("Fft3d/{protocol} on {engine}");
            assert!(close, "{ctx}: {:?} vs {:?}", r.checksum, seq.checksum);
        }
    }
}

/// Every FFT version — its lock-folded reduction is where PR 18's
/// send-order race surfaced — against the sequential program.
fn fft3d_version_matrix(seeds: RangeInclusive<u64>) {
    let seq = RunSpec::new(AppId::Fft3d, Version::Seq, 1, 0.05).run();
    for v in [Version::HandOpt].into_iter().chain(Version::SWEEP) {
        for engine in seeds.clone().map(EngineKind::Seeded) {
            let r = run(AppId::Fft3d, v, 4, 0.05, ProtocolMode::Lrc, engine);
            let close = checksums_close(&r.checksum, &seq.checksum, 1e-9);
            let ctx = format!("Fft3d {v:?} on {engine}");
            assert!(close, "{ctx}: {:?} vs {:?}", r.checksum, seq.checksum);
            // The element-0 probe is reduction-free: bit-exact.
            assert_eq!(r.checksum[2..], seq.checksum[2..], "{ctx}: probe");
        }
    }
}

/// Fused dispatches: hinted Shallow (0.05) and FFT (0.1) on 8 nodes
/// under both protocols, against the sequential program — Shallow
/// bitwise, FFT's tree-summed accumulators to tolerance and its probe
/// bitwise. Each of Shallow's step loops shares a fork-join with its row
/// wrap; FFT's three passes over the planes share one, and its dim-3
/// pass, normalization and checksum over the chunks another.
fn fused_dispatch_cells(seeds: RangeInclusive<u64>) {
    for (app, scale) in [(AppId::Shallow, 0.05), (AppId::Fft3d, 0.1)] {
        let seq = RunSpec::new(app, Version::Seq, 1, scale).run().checksum;
        for protocol in ProtocolMode::ALL {
            for engine in seeds.clone().map(EngineKind::Seeded) {
                let got = run(app, Version::SpfCri, 8, scale, protocol, engine).checksum;
                let ctx = format!("{app:?} SpfCri/{protocol}/8p/{scale} on {engine}");
                // FFT's first two words are tree sums; the rest is exact.
                let exact = if app == AppId::Shallow { 0 } else { 2 };
                assert!(
                    checksums_close(&got, &seq, 1e-9),
                    "{ctx}: {got:?} vs {seq:?}"
                );
                assert_eq!(bits(&got[exact..]), bits(&seq[exact..]), "{ctx}");
            }
        }
    }
}

/// Meet pushes: hinted Shallow under LRC on 8 and 3 nodes, whose pushes
/// carry the words the consumer loops read and leave the rest of each
/// range a hole (`treadmarks::hole`), against the sequential program
/// bitwise. No view of the timed region overlaps a hole, and the
/// master's checksum, which reads every word after it, faults on at
/// least one and fills it (`ci/mutants/push_short_of_its_meet.patch`,
/// a meet one word short, dies in the golden cells instead).
fn meet_push_cells(seeds: RangeInclusive<u64>) {
    for (nprocs, scale) in [(8, 0.05), (3, 0.05)] {
        let seq = RunSpec::new(AppId::Shallow, Version::Seq, 1, scale)
            .run()
            .checksum;
        for engine in seeds.clone().map(EngineKind::Seeded) {
            let lrc = ProtocolMode::Lrc;
            let r = run(AppId::Shallow, Version::SpfCri, nprocs, scale, lrc, engine);
            let ctx = format!("Shallow SpfCri/lrc/{nprocs}p/{scale} on {engine}");
            assert_eq!(bits(&r.checksum), bits(&seq), "{ctx}");
            assert_eq!(
                r.timed_hole_faults, 0,
                "{ctx}: a timed view faulted on a hole"
            );
            assert!(r.dsm.hole_faults > 0, "{ctx}: the checksum filled no hole");
        }
    }
}

#[test]
fn meet_pushes_on_every_explored_schedule() {
    meet_push_cells(TIER1);
}

/// Derived privatization: hinted Jacobi (0.1) and Shallow (0.05) on 8
/// nodes under both protocols, against the sequential program bitwise.
/// Their scratch pages and every page inside a worker's block leave the
/// protocol; with debug assertions a body that opens a view on a page
/// private to another node panics naming its loop
/// (`ci/mutants/privatize_across_a_ghost.patch` drops the stencil's
/// ghost columns from the derivation, and dies here), and the master's
/// checksum fetches the private pages from their owners.
fn privatized_cells(seeds: RangeInclusive<u64>) {
    for (app, scale) in [(AppId::Jacobi, 0.1), (AppId::Shallow, 0.05)] {
        let seq = RunSpec::new(app, Version::Seq, 1, scale).run().checksum;
        for protocol in ProtocolMode::ALL {
            for engine in seeds.clone().map(EngineKind::Seeded) {
                let got = run(app, Version::SpfCri, 8, scale, protocol, engine).checksum;
                let ctx = format!("{app:?} SpfCri/{protocol}/8p/{scale} on {engine}");
                assert_eq!(bits(&got), bits(&seq), "{ctx}");
            }
        }
    }
}

/// Hinted NBF at scale 0.2 on 8 nodes, under both protocols, as
/// [`irregular_cell`] holds it: its force loop follows the position
/// update at once, so the update's join sends the master's pushes before
/// it waits, and the master takes those addressed to it after the next
/// fork. With debug assertions, a push sent and never announced — or
/// taken under another rendezvous' count — is a packet left queued at
/// the end of the run, which the engine panics on
/// (`ci/mutants/join_pushes_unannounced.patch` dies here).
fn hinted_nbf_cells(seeds: RangeInclusive<u64>) {
    for protocol in ProtocolMode::ALL {
        irregular_cell(AppId::Nbf, protocol, 8, 0.2, seeds.clone());
    }
}

#[test]
fn hinted_nbf_on_every_explored_schedule() {
    hinted_nbf_cells(TIER1);
}

#[test]
fn privatized_pages_on_every_explored_schedule() {
    privatized_cells(TIER1);
}

#[test]
fn fused_dispatches_on_every_explored_schedule() {
    fused_dispatch_cells(TIER1);
}

#[test]
fn irregular_cells_stay_equivalent_on_every_explored_schedule() {
    irregular_cells(TIER1, false);
}

#[test]
fn fft3d_runs_complete_on_every_explored_schedule() {
    fft3d_cells(TIER1);
}

#[test]
fn fft3d_version_matrix_on_every_explored_schedule() {
    fft3d_version_matrix(TIER1);
}

/// Hinted IGrid under LRC on 3 nodes at scale 0.05 with 16-word pages,
/// against the sequential program: the smallest cell known where a push
/// landed ahead of another writer's older diff, which a later fault then
/// laid on top of it (`lrc_order`'s probe grid is the same bug at
/// 512-word pages, on the FIFO schedule only).
fn hinted_igrid_on_small_pages(seeds: RangeInclusive<u64>) {
    let seq = RunSpec::new(AppId::IGrid, Version::Seq, 1, 0.05).run();
    for engine in seeds.map(EngineKind::Seeded) {
        let mut spec = RunSpec::new(AppId::IGrid, Version::SpfCri, 3, 0.05).on(engine);
        spec.cfg.page_words = 16;
        let r = spec.protocol(ProtocolMode::Lrc).run();
        let close = checksums_close(&r.checksum, &seq.checksum, 1e-9);
        let ctx = format!("IGrid SpfCri/lrc/3p/0.05/16-word pages on {engine}");
        assert!(close, "{ctx}: {:?} vs {:?}", r.checksum, seq.checksum);
    }
}

/// Hinted MGS on 8 nodes — the push tree three deep — at scale 0.05
/// with 16-word pages, where a column spans several pages and only part
/// of its last one, under both protocols, against the sequential
/// program. Each pivot's owner normalizes it and pushes the rewrite down
/// the tree rooted at itself; the rewrite supersedes — under LRC as the
/// column's words, which every other node installs over diffs it never
/// saw, debug builds checking the words outside them — and each
/// forwarder's service hands it on.
fn mgs_push_tree_cells(seeds: RangeInclusive<u64>) {
    let seq = RunSpec::new(AppId::Mgs, Version::Seq, 1, 0.05).run();
    for protocol in ProtocolMode::ALL {
        for engine in seeds.clone().map(EngineKind::Seeded) {
            let mut spec = RunSpec::new(AppId::Mgs, Version::SpfCri, 8, 0.05);
            spec.cfg.page_words = 16;
            let r = run_spec(spec.on(engine).protocol(protocol));
            let close = checksums_close(&r.checksum, &seq.checksum, 1e-9);
            let ctx = format!("Mgs SpfCri/{protocol}/8p/0.05/16-word pages on {engine}");
            assert!(close, "{ctx}: {:?} vs {:?}", r.checksum, seq.checksum);
        }
    }
}

#[test]
fn mgs_push_tree_on_every_explored_schedule() {
    mgs_push_tree_cells(TIER1);
}

/// Hinted MGS at scale 0.05 on 8 nodes, with 16-word pages and with
/// 512-word ones, under both protocols, bitwise against the sequential
/// program: the pivot loop is one chained dispatch, in which each node
/// starts its next body once the link push of the next pivot, which that
/// pivot's owner normalized at the end of its own body, has arrived.
/// With debug assertions every chained body is fenced to its
/// descriptor, and a link push taken by no one, or one that never came,
/// is a packet left queued or a deadlock naming the seed
/// (`ci/mutants/chain_body_before_its_push.patch` starts the next body
/// without waiting, and dies here).
fn chained_mgs_cells(seeds: RangeInclusive<u64>) {
    let seq = RunSpec::new(AppId::Mgs, Version::Seq, 1, 0.05)
        .run()
        .checksum;
    for page_words in [16, 512] {
        for protocol in ProtocolMode::ALL {
            for engine in seeds.clone().map(EngineKind::Seeded) {
                let mut spec = RunSpec::new(AppId::Mgs, Version::SpfCri, 8, 0.05);
                spec.cfg.page_words = page_words;
                let got = run_spec(spec.on(engine).protocol(protocol)).checksum;
                let ctx =
                    format!("Mgs SpfCri/{protocol}/8p/0.05/{page_words}-word pages on {engine}");
                assert_eq!(bits(&got), bits(&seq), "{ctx}: {got:?} vs {seq:?}");
            }
        }
    }
}

#[test]
fn chained_mgs_on_every_explored_schedule() {
    chained_mgs_cells(TIER1);
}

/// Two superseding pushes of one page meet at node 0, the older one
/// from the higher node: node 2 rewrites the page under a lock, then
/// node 1 — which takes the lock after it — rewrites it again, and both
/// push it to node 0 at the next barrier. Node 0 installs node 1's and
/// must drop node 2's, whose watermarks lack node 1's interval
/// (`ci/mutants/superseding_push_without_dominance.patch` installs it,
/// and node 0 reads node 2's words). Node 0's view of the page after
/// the barrier, on schedule `engine`.
fn stale_superseding_push(engine: EngineKind) -> Vec<f64> {
    let out = Cluster::run(ClusterConfig::sp2_on(3, engine), |node| {
        let tmk = Tmk::new(
            node,
            TmkConfig {
                page_words: 16,
                ..TmkConfig::default()
            },
        );
        let a = tmk.malloc_f64(16);
        let me = tmk.proc_id();
        if me > 0 {
            if me == 1 {
                // Take the lock only once node 2 has released it.
                node.recv_from(2, 1);
            }
            tmk.acquire(0);
            let page = 0..16;
            tmk.write(a, page.clone()).slice_mut().fill(me as f64);
            tmk.supersede_at_next_sync(a, std::slice::from_ref(&page));
            tmk.push_at_next_sync(0, a, page);
            tmk.release(0);
            if me == 2 {
                node.send(1, 1, MsgKind::Data, vec![]);
            }
        }
        tmk.barrier(0);
        let seen = tmk.read(a, 0..16).slice().to_vec();
        tmk.barrier(1);
        tmk.finish();
        seen
    });
    out.results[0].clone()
}

/// [`stale_superseding_push`] on every schedule of `seeds`: node 0 reads
/// node 1's words.
fn stale_superseding_pushes_are_dropped(seeds: RangeInclusive<u64>) {
    let stale: Vec<String> = (seeds.map(EngineKind::Seeded))
        .filter(|&engine| stale_superseding_push(engine) != [1.0; 16])
        .map(|engine| engine.to_string())
        .collect();
    assert!(
        stale.is_empty(),
        "node 0 installed the stale superseding push on {stale:?}"
    );
}

#[test]
fn stale_superseding_pushes_are_dropped_on_every_explored_schedule() {
    stale_superseding_pushes_are_dropped(TIER1);
}

/// Rounds of [`grant_during_a_publish`].
const ROUNDS: u32 = 16;

/// A lock grant a node's service sends while its application publishes,
/// under HLRC: node 0 writes a word of page 0, which it homes, under a
/// lock it manages, `ROUNDS` times, while node 1 takes a fresh lock that
/// node 0 manages each round — granted by node 0's service from node 0's
/// live log — and reads the word. A grant built between a release's
/// flush and the buffering of node 0's own ranges into its home copy
/// would announce an interval that home cannot serve yet, and node 1's
/// fetch would be deferred with no flush ever to retry it: publication
/// is one state-cell section (`ci/mutants/pr9_publish_window.patch`
/// splits it, and the engine's deadlock diagnostic names the seed).
/// Every node's read of the word after the closing barrier.
fn grant_during_a_publish(engine: EngineKind) -> Vec<f64> {
    let out = Cluster::run(ClusterConfig::sp2_on(2, engine), |node| {
        let tmk = Tmk::new(node, TmkConfig::hlrc());
        let a = tmk.malloc_f64(1);
        for round in 0..ROUNDS {
            if tmk.proc_id() == 0 {
                tmk.acquire(0);
                tmk.write_one(a, 0, f64::from(round + 1));
                tmk.release(0);
            } else {
                // Even locks are node 0's to manage, and their tokens
                // start there.
                tmk.acquire(2 * round + 2);
                tmk.read_one(a, 0);
                tmk.release(2 * round + 2);
            }
        }
        tmk.barrier(0);
        let seen = tmk.read_one(a, 0);
        tmk.finish();
        seen
    });
    out.results
}

/// [`grant_during_a_publish`] on every schedule of `seeds`: it ends, and
/// both nodes read the last round's word.
fn grants_during_a_publish(seeds: RangeInclusive<u64>) {
    for engine in seeds.map(EngineKind::Seeded) {
        let seen =
            std::panic::catch_unwind(|| grant_during_a_publish(engine)).unwrap_or_else(|payload| {
                panic!("grant during a publish on {engine}: {}", said(&*payload))
            });
        assert_eq!(
            seen,
            [f64::from(ROUNDS); 2],
            "grant during a publish on {engine}"
        );
    }
}

#[test]
fn grants_during_a_publish_on_every_explored_schedule() {
    grants_during_a_publish(TIER1);
}

/// Every application's hinted version on 3 nodes at scale 0.05 with
/// 16-word pages, where each write-all (`Write`) touch covers whole
/// pages, under both protocols, against the sequential program. With
/// debug assertions a body that reads a page it declared to overwrite,
/// or leaves a word of one unstored, panics naming its loop
/// (`ci/mutants/write_all_reads_first.patch` re-declares MGS's
/// orthogonalization as a write, and dies here).
fn write_all_cells(seeds: RangeInclusive<u64>) {
    for app in AppId::ALL {
        let seq = RunSpec::new(app, Version::Seq, 1, 0.05).run();
        for protocol in ProtocolMode::ALL {
            for engine in seeds.clone().map(EngineKind::Seeded) {
                let mut spec = RunSpec::new(app, Version::SpfCri, 3, 0.05);
                spec.cfg.page_words = 16;
                let r = run_spec(spec.on(engine).protocol(protocol));
                let close = checksums_close(&r.checksum, &seq.checksum, 1e-9);
                let ctx = format!("{app:?} SpfCri/{protocol}/3p/0.05/16-word pages on {engine}");
                assert!(close, "{ctx}: {:?} vs {:?}", r.checksum, seq.checksum);
            }
        }
    }
}

#[test]
fn write_all_cells_on_every_explored_schedule() {
    write_all_cells(TIER1);
}

/// Validated writes: hinted Shallow (0.05) and FFT (0.1) on 3 nodes,
/// where blocks are uneven, under both protocols, against the sequential
/// program — Shallow bitwise, FFT's tree-summed accumulators to
/// tolerance and its probe bitwise. Their bodies write pages their
/// footprints declare written but do not cover whole, which the validate
/// write-enables (`Tmk::arm`): a first write there twins without a
/// fault. With debug assertions a write view outside the declared
/// writes panics naming its loop
/// (`ci/mutants/write_declared_as_read.patch` declares a Shallow output
/// read, and dies here), and so does a page still armed once its body
/// released (`ci/mutants/validated_arming_survives_release.patch`).
fn validated_write_cells(seeds: RangeInclusive<u64>) {
    for (app, scale) in [(AppId::Shallow, 0.05), (AppId::Fft3d, 0.1)] {
        let seq = RunSpec::new(app, Version::Seq, 1, scale).run().checksum;
        for protocol in ProtocolMode::ALL {
            for engine in seeds.clone().map(EngineKind::Seeded) {
                let r = run(app, Version::SpfCri, 3, scale, protocol, engine);
                let ctx = format!("{app:?} SpfCri/{protocol}/3p/{scale} on {engine}");
                let exact = if app == AppId::Shallow { 0 } else { 2 };
                let got = &r.checksum;
                assert!(
                    checksums_close(got, &seq, 1e-9),
                    "{ctx}: {got:?} vs {seq:?}"
                );
                assert_eq!(bits(&got[exact..]), bits(&seq[exact..]), "{ctx}");
                assert!(r.dsm.twins > 0, "{ctx}: no body twinned a page");
            }
        }
    }
}

#[test]
fn validated_writes_on_every_explored_schedule() {
    validated_write_cells(TIER1);
}

/// The virtual clock is a function of the program: hinted Shallow (8 ×
/// 0.1), MGS (8 × 0.12) and NBF (8 × 0.2) under LRC — `BENCH_sweep.json`'s
/// cells 51, 52 and 50 — take the same time, messages and bytes on every
/// explored schedule as on the FIFO one, bit for bit. A fork that
/// announces the master's body interval before the body has run makes
/// the FIFO schedule fetch it early
/// (`ci/mutants/fork_departure_reads_live_clock.patch` builds the
/// departures from the live clock again, and dies here).
fn schedule_free_cells(seeds: RangeInclusive<u64>) {
    for (app, scale) in [(AppId::Shallow, 0.1), (AppId::Mgs, 0.12), (AppId::Nbf, 0.2)] {
        let columns = |engine| {
            let r = run(app, Version::SpfCri, 8, scale, ProtocolMode::Lrc, engine);
            (r.time_us, r.messages, r.stats.total_bytes())
        };
        let fifo = columns(EngineKind::Sequential);
        for engine in seeds.clone().map(EngineKind::Seeded) {
            let got = columns(engine);
            assert!(
                got.0.to_bits() == fifo.0.to_bits() && (got.1, got.2) == (fifo.1, fifo.2),
                "{app:?} SpfCri/lrc/8p/{scale} on {engine}: (time_us, messages, bytes) {got:?}, \
                 on sequential {fifo:?}"
            );
        }
    }
}

#[test]
fn hinted_cells_take_the_same_virtual_time_on_every_explored_schedule() {
    schedule_free_cells(TIER1);
}

/// CI's `explore` job (`-- --include-ignored`), and what
/// `ci/mutants.sh` requires to fail on each re-broken fix: the seeded
/// cells first, so that a failure names its seed, then the LRC probe
/// grid on the FIFO schedule.
#[test]
#[ignore = "CI's explore job: every combination, 8x tier-1's seed budget"]
fn every_cell_on_the_ci_seed_budget() {
    for cfg in [TmkConfig::default(), TmkConfig::hlrc()] {
        lrc_order::assert_no_rollback(cfg, *CI.end());
    }
    hinted_igrid_on_small_pages(CI);
    stale_superseding_pushes_are_dropped(CI);
    grants_during_a_publish(CI);
    mgs_push_tree_cells(CI);
    chained_mgs_cells(CI);
    write_all_cells(CI);
    validated_write_cells(CI);
    schedule_free_cells(CI);
    privatized_cells(CI);
    meet_push_cells(CI);
    hinted_nbf_cells(CI);
    fused_dispatch_cells(CI);
    irregular_cells(CI, true);
    fft3d_cells(CI);
    fft3d_version_matrix(CI);
    lrc_order::assert_probe_grid(&[0.2, 0.25, 0.3, 0.4, 0.5, 0.75, 1.0]);
}
