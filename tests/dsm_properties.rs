//! Property-based tests of the DSM through its public interface:
//! randomized multi-writer patterns, lock chains and barrier schedules
//! must always produce the sequentially-consistent result.

mod lrc_order;

use proptest::prelude::*;
use sp2sim::{Cluster, ClusterConfig};
use treadmarks::{Tmk, TmkConfig};

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

/// A word whose writer changes between epochs is never rolled back to
/// an older writer's value, in either role assignment (`lrc_order`), on
/// the FIFO schedule and 32 seeded ones.
#[test]
fn a_word_whose_writer_changes_is_not_rolled_back_under_hlrc() {
    lrc_order::assert_no_rollback(TmkConfig::hlrc(), 32);
}

/// The same under LRC, where a range spans several intervals of its
/// writer: it keeps the stamp of the interval that opened it, and a
/// foreign notice for its page closes it.
#[test]
fn a_word_whose_writer_changes_is_not_rolled_back_under_lrc() {
    lrc_order::assert_no_rollback(TmkConfig::default(), 32);
}

/// Hinted IGrid under LRC agrees with the sequential program on tier-1's
/// share of the probe grid, 0.2 and 0.25 × {4, 8} nodes — cells where
/// pushes once landed ahead of another writer's older diff.
/// `schedule_exploration`'s CI budget runs all fourteen cells.
#[test]
fn hinted_igrid_under_lrc_matches_the_sequential_program_on_the_probe_grid() {
    lrc_order::assert_probe_grid(&[0.2, 0.25]);
}
