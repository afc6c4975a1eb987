//! The order LRC applies diffs in, on the inputs that once broke it: a
//! word whose writer changes between epochs, in two role assignments,
//! and hinted IGrid under LRC on a grid of 4- and 8-node cells up to the
//! paper's scale (DESIGN.md, "The order diffs apply in"). Shared by
//! `dsm_properties`, which runs tier-1's share, and
//! `schedule_exploration`, whose CI budget runs all of it and which
//! `ci/mutants.sh` requires to fail on each of the three rules re-broken.

use std::ops::Range;

use apps::common::checksums_close;
use apps::{AppId, RunSpec, Version};
use sp2sim::{Cluster, ClusterConfig, EngineKind};
use treadmarks::{ProtocolMode, Tmk, TmkConfig};

/// Who writes which words of one 16-word page in each of two epochs:
/// `(node, words, base)`, word `i` getting `base + i`.
type Writes = [&'static [(usize, Range<usize>, f64)]; 2];

/// The two inputs. Each ends with words 0..8 at node 0's second-epoch
/// values, `200 + i`, and words 8..16 at `300 + i`; node 2 only reads.
///
/// 1. Node 1 writes 0..8; then node 1 writes 8..16 while node 0
///    overwrites 0..8. Node 1's range may stay open across both epochs
///    (a diff is made when somebody asks): stamped with its *second*
///    interval, the diff of both sorts after node 0's interval and rolls
///    words 0..8 back at node 2.
/// 2. The roles swapped: node 0 writes 8..16 while node 1 writes 0..8;
///    then node 0 overwrites 0..8. Unless node 1's notice closes node
///    0's range, one diff of both of node 0's epochs, stamped with its
///    *first* interval, sorts before node 1's and is rolled back by it.
static WRITER_CHANGES: [Writes; 2] = [
    [&[(1, 0..8, 100.0)], &[(0, 0..8, 200.0), (1, 8..16, 300.0)]],
    [&[(0, 8..16, 300.0), (1, 0..8, 100.0)], &[(0, 0..8, 200.0)]],
];

/// Run `writes` on three nodes on schedule `engine`; every node's view
/// of the sixteen words after the second barrier.
fn writer_change(cfg: TmkConfig, writes: &'static Writes, engine: EngineKind) -> Vec<Vec<f64>> {
    let out = Cluster::run(ClusterConfig::sp2_on(3, engine), move |node| {
        let tmk = Tmk::new(node, cfg);
        let a = tmk.malloc_f64(16);
        for (epoch, writes) in writes.iter().enumerate() {
            for (_, words, base) in writes.iter().filter(|w| w.0 == tmk.proc_id()) {
                let mut w = tmk.write(a, words.clone());
                for i in words.clone() {
                    w[i] = base + i as f64;
                }
            }
            tmk.barrier(epoch as u32);
        }
        let seen = tmk.read(a, 0..16).slice().to_vec();
        tmk.barrier(2);
        tmk.finish();
        seen
    });
    out.results
}

/// Both writer-change inputs under `cfg` on the FIFO schedule and
/// `seeds` seeded ones: every node reads the latest words. Every
/// schedule runs; the failure names the input and the schedules that
/// rolled back.
pub fn assert_no_rollback(cfg: TmkConfig, seeds: u64) {
    let expect: Vec<f64> = (0..16)
        .map(|i| if i < 8 { 200.0 } else { 300.0 } + i as f64)
        .collect();
    for (input, writes) in WRITER_CHANGES.iter().enumerate() {
        let rolled_back: Vec<String> = EngineKind::explore(seeds)
            .filter(|&engine| {
                writer_change(cfg, writes, engine)
                    .iter()
                    .any(|seen| *seen != expect)
            })
            .map(|engine| engine.to_string())
            .collect();
        assert!(
            rolled_back.is_empty(),
            "{:?}, writer change {}: a node read stale words on {} of {} schedules: \
             {rolled_back:?}",
            cfg.protocol,
            input + 1,
            rolled_back.len(),
            seeds + 1
        );
    }
}

/// Hinted IGrid under LRC, 512-word pages, on 4 and 8 nodes at each of
/// `scales`, each checksum against the sequential program's at 1e-9.
/// Every cell runs; the failure lists each one that diverges.
pub fn assert_probe_grid(scales: &[f64]) {
    let mut diverged = Vec::new();
    for &scale in scales {
        let seq = RunSpec::new(AppId::IGrid, Version::Seq, 1, scale)
            .run()
            .checksum;
        for nprocs in [4, 8] {
            let spec = RunSpec::new(AppId::IGrid, Version::SpfCri, nprocs, scale)
                .protocol(ProtocolMode::Lrc);
            assert_eq!(spec.cfg.page_words, 512);
            let got = spec.run().checksum;
            if !checksums_close(&got, &seq, 1e-9) {
                diverged.push(format!(
                    "{nprocs} nodes at scale {scale}: {got:?}, Seq {seq:?}"
                ));
            }
        }
    }
    assert!(
        diverged.is_empty(),
        "{} of {} probe cells diverge from Seq:\n{}",
        diverged.len(),
        2 * scales.len(),
        diverged.join("\n")
    );
}
