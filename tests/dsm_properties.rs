//! Property-based tests of the DSM through its public interface:
//! randomized multi-writer patterns, lock chains and barrier schedules
//! must always produce the sequentially-consistent result.

use apps::common::checksums_close;
use apps::{AppId, RunSpec, Version};
use proptest::prelude::*;
use sp2sim::{Cluster, ClusterConfig, EngineKind};
use treadmarks::{ProtocolMode, Tmk, TmkConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Disjoint random writes by all nodes to one shared array merge into
    /// exactly the union, whatever the page overlap pattern.
    #[test]
    fn prop_multiwriter_disjoint_union(
        nprocs in 2usize..5,
        len in 64usize..1500,
        seed in 0u64..1000,
    ) {
        let out = Cluster::run(ClusterConfig::sp2(nprocs), move |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let a = tmk.malloc_f64(len);
            let me = tmk.proc_id();
            // Node k writes indices where (i + seed) % nprocs == k:
            // word-interleaved, maximal false sharing.
            {
                let mut w = tmk.write(a, 0..len);
                for i in 0..len {
                    if (i + seed as usize) % nprocs == me {
                        w[i] = (1000 * me + i) as f64;
                    }
                }
            }
            tmk.barrier(0);
            let v: Vec<f64> = tmk.read(a, 0..len).slice().to_vec();
            tmk.barrier(1);
            tmk.finish();
            v
        });
        // NOTE: each node's write view covered the whole range but only
        // stored to its own slots; untouched words still equal the twin,
        // so they diff as "unchanged" and do not propagate — the
        // multiple-writer guarantee.
        let expect: Vec<f64> = (0..len)
            .map(|i| {
                let owner = (i + seed as usize) % nprocs;
                (1000 * owner + i) as f64
            })
            .collect();
        for v in out.results {
            prop_assert_eq!(&v, &expect);
        }
    }

    /// A lock-protected counter incremented a random number of times per
    /// node always totals the global count (mutual exclusion + RC).
    #[test]
    fn prop_lock_counter_exact(
        nprocs in 2usize..5,
        rounds in prop::collection::vec(1usize..6, 2..5),
    ) {
        let rounds_clone = rounds.clone();
        let out = Cluster::run(ClusterConfig::sp2(nprocs), move |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let a = tmk.malloc_f64(4);
            let my_rounds = rounds_clone[node.id() % rounds_clone.len()];
            for _ in 0..my_rounds {
                tmk.acquire(5);
                let v = tmk.read_one(a, 1);
                tmk.write_one(a, 1, v + 1.0);
                tmk.release(5);
            }
            tmk.barrier(0);
            let v = tmk.read_one(a, 1);
            tmk.finish();
            v
        });
        let expect: usize = (0..nprocs).map(|k| rounds[k % rounds.len()]).sum();
        for v in out.results {
            prop_assert_eq!(v, expect as f64);
        }
    }

    /// Epoch visibility: values written before barrier k are exactly what
    /// every reader sees after barrier k, for a random write schedule.
    #[test]
    fn prop_epoch_visibility(
        nprocs in 2usize..5,
        epochs in 2usize..5,
        writers in prop::collection::vec(0usize..4, 2..5),
    ) {
        let writers_clone = writers.clone();
        let out = Cluster::run(ClusterConfig::sp2(nprocs), move |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let a = tmk.malloc_f64(16);
            let me = tmk.proc_id();
            let mut seen = Vec::new();
            for e in 0..epochs {
                let writer = writers_clone[e % writers_clone.len()] % tmk.nprocs();
                if me == writer {
                    tmk.write_one(a, 3, (e + 1) as f64);
                }
                tmk.barrier(e as u32);
                seen.push(tmk.read_one(a, 3));
                tmk.barrier(1000 + e as u32);
            }
            tmk.finish();
            seen
        });
        let expect: Vec<f64> = (0..epochs).map(|e| (e + 1) as f64).collect();
        for v in out.results {
            prop_assert_eq!(&v, &expect);
        }
    }

    /// The push extension never changes results, only traffic shape.
    #[test]
    fn prop_push_is_transparent(
        len in 16usize..600,
        target in 1usize..4,
    ) {
        let out = Cluster::run(ClusterConfig::sp2(4), move |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let a = tmk.malloc_f64(len);
            if tmk.proc_id() == 0 {
                let mut w = tmk.write(a, 0..len);
                for i in 0..len {
                    w[i] = i as f64 + 0.5;
                }
                drop(w);
                tmk.push_at_next_sync(target, a, 0..len);
            }
            tmk.barrier(0);
            let ok = {
                let r = tmk.read(a, 0..len);
                (0..len).all(|i| r[i] == i as f64 + 0.5)
            };
            tmk.barrier(1);
            tmk.finish();
            ok
        });
        prop_assert!(out.results.iter().all(|&ok| ok));
    }
}

#[test]
fn lock_chain_stress_no_deadlock() {
    // Regression test for the token-queue deadlock: four nodes hammer
    // one lock (manager on node 1) across many epochs, re-acquiring
    // immediately after releasing — the exact pattern that deadlocked
    // the pre-token protocol.
    for round in 0..20 {
        let out = Cluster::run(ClusterConfig::sp2(4), move |node| {
            let tmk = Tmk::new(node, TmkConfig::default());
            let a = tmk.malloc_f64(1);
            for _ in 0..3 {
                tmk.acquire(1);
                let v = tmk.read_one(a, 0);
                tmk.write_one(a, 0, v + 1.0);
                tmk.release(1);
            }
            tmk.barrier(round);
            let v = tmk.read_one(a, 0);
            tmk.finish();
            v
        });
        for v in out.results {
            assert_eq!(v, 12.0, "round {round}");
        }
    }
}

/// ROADMAP direction 1(a), the writer of a word changes between epochs:
/// node 1 writes words 0..8 of a page; barrier; node 1 writes 8..16
/// while node 0 overwrites 0..8; barrier; node 2 reads the page. Node
/// 1's twin may stay open across both epochs (a diff is made when
/// somebody asks), and a diff of both that sorted after node 0's
/// interval would roll words 0..8 back to node 1's values at node 2.
/// Returns every node's view of the sixteen words on schedule `engine`.
fn writer_change(cfg: TmkConfig, engine: EngineKind) -> Vec<Vec<f64>> {
    let out = Cluster::run(ClusterConfig::sp2_on(3, engine), move |node| {
        let tmk = Tmk::new(node, cfg);
        let a = tmk.malloc_f64(16);
        let me = tmk.proc_id();
        let fill = |range: std::ops::Range<usize>, base: f64| {
            let mut w = tmk.write(a, range.clone());
            for i in range {
                w[i] = base + i as f64;
            }
        };
        if me == 1 {
            fill(0..8, 100.0);
        }
        tmk.barrier(0);
        match me {
            0 => fill(0..8, 200.0),
            1 => fill(8..16, 300.0),
            _ => {}
        }
        tmk.barrier(1);
        let seen = tmk.read(a, 0..16).slice().to_vec();
        tmk.barrier(2);
        tmk.finish();
        seen
    });
    out.results
}

/// What every node must see after [`writer_change`] — node 0's words,
/// then node 1's second epoch — on the FIFO schedule and 32 seeded
/// ones. Every schedule runs; the failure names the ones that rolled
/// back.
fn assert_no_rollback(cfg: TmkConfig) {
    let expect: Vec<f64> = (0..16)
        .map(|i| if i < 8 { 200.0 } else { 300.0 } + i as f64)
        .collect();
    let rolled_back: Vec<String> = EngineKind::explore(32)
        .filter(|&engine| {
            writer_change(cfg, engine)
                .iter()
                .any(|seen| *seen != expect)
        })
        .map(|engine| engine.to_string())
        .collect();
    assert!(
        rolled_back.is_empty(),
        "{:?}: a node read stale words on {} of 33 schedules: {rolled_back:?}",
        cfg.protocol,
        rolled_back.len()
    );
}

#[test]
fn a_word_whose_writer_changes_is_not_rolled_back_under_hlrc() {
    assert_no_rollback(TmkConfig::hlrc());
}

/// Fails as of PR 23 on 12 of the 33 schedules, the FIFO one among them.
/// There node 1 publishes its second interval before its service loop
/// answers node 0's write fault, so the diff that request freezes covers
/// both of node 1's intervals under the second one's stamp, (2, node 1),
/// and sorts after node 0's interval (2, node 0) at node 2 — which reads
/// words 0..8 as `[100.0, 101.0, …, 107.0]`, node 1's first-epoch
/// values, instead of `[200.0, …, 207.0]`. Nodes 0 and 1 read the right
/// words. On the other schedules the service loop gets in before the
/// second publish and the range splits where real TreadMarks splits it.
#[test]
#[ignore = "ROADMAP direction 1(a)"]
fn a_word_whose_writer_changes_is_not_rolled_back_under_lrc() {
    assert_no_rollback(TmkConfig::default());
}

/// ROADMAP direction 1(b), the probe grid: IGrid SPF+CRI under LRC with
/// 512-word pages on 4 and 8 nodes, at seven scales up to the paper's,
/// each checksum held against the sequential program's at 1e-9. Every
/// cell runs; the failure lists each one that diverges.
#[test]
#[ignore = "ROADMAP direction 1(b)"]
fn hinted_igrid_under_lrc_matches_the_sequential_program_on_the_probe_grid() {
    let mut diverged = Vec::new();
    for scale in [0.2, 0.25, 0.3, 0.4, 0.5, 0.75, 1.0] {
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
        "{} of 14 probe cells diverge from Seq:\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}
