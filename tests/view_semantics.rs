//! The contract of the in-place views (`treadmarks::page`): views are
//! windows onto the page frames, not snapshots, and the invariants that
//! make that sound are checked at run time.
//!
//! * random read/write/barrier/lock programs leave every node's memory
//!   byte-identical to a plain-array reference model — both protocols,
//!   FIFO and seeded schedules, small pages so that every range straddles pages and
//!   extents merge;
//! * a store through a `WriteView` is in memory at once: no commit step;
//! * each invariant has a test that trips it: overlapping views, a view
//!   held across a barrier, a merge that would move a pinned extent;
//! * the applications' own view patterns trip none of them on 1, 2, 3
//!   and 8 nodes, with columns shorter and longer than a page.

use proptest::prelude::*;
use sp2sim::{Cluster, ClusterConfig, EngineKind};
use treadmarks::{ProtocolMode, Tmk, TmkConfig};

/// Words per page in these tests: small, so short arrays span many pages.
const PW: usize = 32;

fn cfg(protocol: ProtocolMode) -> TmkConfig {
    TmkConfig {
        page_words: PW,
        ..TmkConfig::default().with_protocol(protocol)
    }
}

/// One node, sequential engine: a panic in the body reaches the test.
fn solo<R: Send>(f: impl Fn(&Tmk) -> R + Sync) -> R {
    let out = Cluster::run(
        ClusterConfig::sp2_on(1, EngineKind::Sequential),
        move |node| f(&Tmk::new(node, cfg(ProtocolMode::Lrc))),
    );
    out.results.into_iter().next().expect("one node")
}

// ---------------------------------------------------------------------
// Random programs against a reference model
// ---------------------------------------------------------------------

/// One epoch of a random data-race-free program over an array of `len`
/// words. Writers own alternating blocks of `block` words (block `b`
/// belongs to node `(b + shift) % n`), so concurrent writers share pages
/// but never words. `block` and `shift` are drawn once per program: a
/// word keeps its writer for the whole run, as in every application
/// here (`tests/dsm_properties.rs` holds words whose writer changes).
#[derive(Clone, Debug)]
struct Epoch {
    block: usize,
    shift: usize,
    /// How many of its blocks each node writes this epoch (0 = none),
    /// counted from block `first`.
    first: usize,
    density: usize,
    /// Store through `slice_mut` (true) or through `IndexMut` (false).
    by_slice: bool,
    /// A range every node reads and checks after the epoch's barrier.
    check: (usize, usize),
    /// `(node, lock)` increments done under a lock before the barrier.
    bumps: Vec<(usize, usize)>,
}

const LOCKS: usize = 3;

fn value(node: usize, epoch: usize, i: usize) -> f64 {
    (1 + node) as f64 * 1e6 + epoch as f64 * 1e3 + i as f64 * 0.25
}

/// The blocks `node` writes in `e`, as word ranges.
fn writes(e: &Epoch, node: usize, n: usize, len: usize) -> Vec<std::ops::Range<usize>> {
    (0..len.div_ceil(e.block))
        .filter(|b| (b + e.shift) % n == node)
        .skip(e.first)
        .take(e.density)
        .map(|b| b * e.block..((b + 1) * e.block).min(len))
        .collect()
}

/// What a plain array holds after running `program`.
fn model(program: &[Epoch], n: usize, len: usize) -> (Vec<f64>, Vec<f64>) {
    let mut mem = vec![0.0; len];
    let mut counters = vec![0.0; LOCKS];
    for (k, e) in program.iter().enumerate() {
        for node in 0..n {
            for r in writes(e, node, n, len) {
                for i in r {
                    mem[i] = value(node, k, i);
                }
            }
        }
        for &(node, lock) in &e.bumps {
            if node < n {
                counters[lock] += 1.0;
            }
        }
    }
    (mem, counters)
}

/// Run `program` on the DSM; every node returns its final view of the
/// array and of the lock-protected counters, as bits, and whether every
/// per-epoch check held (returned, so that a failure reports the case
/// through `prop_assert!`).
fn run_program(
    program: &[Epoch],
    n: usize,
    len: usize,
    protocol: ProtocolMode,
    engine: EngineKind,
) -> Vec<(Vec<u64>, Vec<u64>, bool)> {
    let out = Cluster::run(ClusterConfig::sp2_on(n, engine), move |node| {
        let tmk = Tmk::new(node, cfg(protocol));
        let me = tmk.proc_id();
        let a = tmk.malloc_f64(len);
        // One counter per lock, each on its own page.
        let counters = tmk.malloc_f64(LOCKS * PW);
        let mut ok = true;
        for (k, e) in program.iter().enumerate() {
            for r in writes(e, me, n, len) {
                let mut w = tmk.write(a, r.clone());
                if e.by_slice {
                    for (x, i) in w.slice_mut().iter_mut().zip(r) {
                        *x = value(me, k, i);
                    }
                } else {
                    for i in r {
                        w[i] = value(me, k, i);
                    }
                }
            }
            for &(_, lock) in e.bumps.iter().filter(|(q, _)| *q == me) {
                tmk.acquire(lock as u32);
                let cur = tmk.read_one(counters, lock * PW);
                tmk.write_one(counters, lock * PW, cur + 1.0);
                tmk.release(lock as u32);
            }
            tmk.barrier(k as u32);
            // Everyone checks a range against the model so far, through
            // a view that stays open while a second one is opened.
            let mem = model(&program[..=k], n, len).0;
            let (lo, hi) = e.check;
            let whole = tmk.read(a, lo..hi);
            let inner = tmk.read(a, lo + (hi - lo) / 2..hi);
            ok &= whole.slice() == &mem[lo..hi] && inner[hi - 1] == mem[hi - 1];
            drop((whole, inner));
            tmk.barrier(1000 + k as u32);
        }
        let final_mem: Vec<u64> = tmk
            .read(a, 0..len)
            .slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let final_counters: Vec<u64> = (0..LOCKS)
            .map(|l| tmk.read_one(counters, l * PW).to_bits())
            .collect();
        tmk.finish();
        (final_mem, final_counters, ok)
    });
    out.results
}

const LEN: usize = 11 * PW + 5;

/// What the strategy below draws for one epoch.
type RawEpoch = ((usize, usize), (usize, usize, usize), Vec<(usize, usize)>);

fn epoch_of(
    (block, shift): (usize, usize),
    ((first, density), (by_slice, lo, span), bumps): RawEpoch,
) -> Epoch {
    Epoch {
        block,
        shift,
        first,
        density,
        by_slice: by_slice == 1,
        check: (lo, (lo + span).min(LEN)),
        bumps,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random write/lock/barrier/read programs end with every node's
    /// memory byte-identical to the plain-array model, under both
    /// protocols, on the FIFO schedule and four seeded ones.
    #[test]
    fn random_programs_match_the_reference_model(
        n in 2usize..5,
        layout in (1usize..3 * PW, 0usize..4),
        raw in prop::collection::vec(
            (
                (0usize..3, 0usize..6),
                (0usize..2, 0usize..LEN - 1, 1usize..LEN),
                prop::collection::vec((0usize..4, 0usize..LOCKS), 0..5),
            ),
            1..6,
        ),
    ) {
        let program: Vec<Epoch> = raw.into_iter().map(|e| epoch_of(layout, e)).collect();
        let (mem, counters) = model(&program, n, LEN);
        let want_mem: Vec<u64> = mem.iter().map(|x| x.to_bits()).collect();
        let want_counters: Vec<u64> = counters.iter().map(|x| x.to_bits()).collect();
        for protocol in [ProtocolMode::Lrc, ProtocolMode::Hlrc] {
            for engine in EngineKind::explore(4) {
                for (node, (m, c, ok)) in run_program(&program, n, LEN, protocol, engine)
                    .into_iter()
                    .enumerate()
                {
                    prop_assert!(ok, "epoch check: {} {} node {}", protocol, engine, node);
                    prop_assert_eq!(&m, &want_mem, "{} {} node {}", protocol, engine, node);
                    prop_assert_eq!(&c, &want_counters, "{} {} node {}", protocol, engine, node);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Windows, not snapshots
// ---------------------------------------------------------------------

#[test]
fn a_store_is_in_memory_at_once_without_a_commit_step() {
    solo(|tmk| {
        let a = tmk.malloc_f64(4 * PW);
        let mut w = tmk.write(a, PW..2 * PW);
        w[PW + 3] = 7.5;
        // Visible through the same view...
        assert_eq!(w[PW + 3], 7.5);
        assert_eq!(w.slice()[3], 7.5);
        // ...and through a read view of *other* words of the same page
        // range opened while the write view is still open: nothing was
        // staged anywhere.
        let beside = tmk.read(a, 0..PW);
        assert_eq!(beside[0], 0.0);
        drop(beside);
        drop(w);
        // After the drop — which copies nothing — a fresh view sees it.
        assert_eq!(tmk.read(a, 0..4 * PW)[PW + 3], 7.5);
        assert_eq!(tmk.read_one(a, PW + 3), 7.5);
        tmk.finish();
    });
}

#[test]
fn two_views_on_one_page_with_disjoint_words_are_allowed() {
    solo(|tmk| {
        let a = tmk.malloc_f64(PW);
        let mut left = tmk.write(a, 0..PW / 2);
        let mut right = tmk.write(a, PW / 2..PW);
        left[1] = 1.0;
        right[PW - 1] = 2.0;
        drop((left, right));
        let all = tmk.read(a, 0..PW);
        assert_eq!((all[1], all[PW - 1]), (1.0, 2.0));
        drop(all);
        tmk.finish();
    });
}

#[test]
fn widening_access_merges_extents_and_keeps_every_word() {
    solo(|tmk| {
        let a = tmk.malloc_f64(6 * PW);
        // Three separate extents: pages 0, 2 and 4..6.
        tmk.write_one(a, 3, 30.0);
        tmk.write_one(a, 2 * PW + 1, 21.0);
        tmk.write(a, 4 * PW..6 * PW)[5 * PW + 7] = 57.0;
        // One view over all six pages: merged once, gaps are zero pages.
        let all = tmk.read(a, 0..6 * PW);
        let mut want = vec![0.0; 6 * PW];
        want[3] = 30.0;
        want[2 * PW + 1] = 21.0;
        want[5 * PW + 7] = 57.0;
        assert_eq!(all.slice(), &want[..]);
        drop(all);
        // The merged frames still diff correctly: a later store and a
        // barrier go through without tripping the protocol.
        tmk.write_one(a, 3 * PW, 33.0);
        tmk.barrier(0);
        assert_eq!(tmk.read_one(a, 3 * PW), 33.0);
        tmk.finish();
    });
}

// ---------------------------------------------------------------------
// Each invariant, tripped
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "overlaps the open write view")]
fn overlapping_write_views_panic() {
    solo(|tmk| {
        let a = tmk.malloc_f64(2 * PW);
        let _w = tmk.write(a, 0..PW + 4);
        let _again = tmk.write(a, PW..2 * PW);
    });
}

#[test]
#[should_panic(expected = "overlaps the open read view")]
fn a_write_view_over_words_being_read_panics() {
    solo(|tmk| {
        let a = tmk.malloc_f64(2 * PW);
        let _r = tmk.read(a, 0..2 * PW);
        let _w = tmk.write(a, 5..6);
    });
}

#[test]
#[should_panic(expected = "barrier with a read view open")]
fn a_view_held_across_a_barrier_panics() {
    solo(|tmk| {
        let a = tmk.malloc_f64(PW);
        let r = tmk.read(a, 0..PW);
        tmk.barrier(0);
        drop(r);
    });
}

#[test]
#[should_panic(expected = "lock release with a write view open")]
fn a_write_view_held_across_a_release_panics() {
    solo(|tmk| {
        let a = tmk.malloc_f64(PW);
        tmk.acquire(0);
        let mut w = tmk.write(a, 0..PW);
        w[0] = 1.0;
        // Before: this store silently landed in the *next* interval.
        tmk.release(0);
    });
}

#[test]
#[should_panic(expected = "open the wider view first")]
fn a_merge_that_would_move_a_pinned_extent_panics() {
    solo(|tmk| {
        let a = tmk.malloc_f64(3 * PW);
        let _narrow = tmk.read(a, 0..PW);
        // Needs pages 0..=1 side by side: the extent of page 0 would move.
        let _wide = tmk.read(a, PW / 2..2 * PW);
    });
}

// ---------------------------------------------------------------------
// The applications' view patterns across node counts and page geometries
// ---------------------------------------------------------------------

/// Whether a second view of an array may be opened while another is held
/// depends on where earlier accesses left the extent boundaries
/// (invariant 1), and that depends on the partition and on how columns
/// fall on pages. So every shared-memory version of every application
/// runs here on 1, 2, 3 and 8 nodes with pages both shorter and longer
/// than a column — small pages give the test-size grids the page
/// geometry of the paper-size ones — and must finish with the
/// sequential program's result.
#[test]
fn every_app_version_runs_at_every_node_count_and_page_geometry() {
    use apps::common::checksums_close;
    use apps::{AppId, RunSpec, Version};
    const SCALE: f64 = 0.035;
    for app in AppId::ALL {
        let seq = RunSpec::new(app, Version::Seq, 1, SCALE).run();
        for version in [
            Version::Spf,
            Version::SpfCri,
            Version::Tmk,
            Version::HandOpt,
        ] {
            for protocol in [ProtocolMode::Lrc, ProtocolMode::Hlrc] {
                for page_words in [16, 512] {
                    for np in [1, 2, 3, 8] {
                        let mut spec = RunSpec::new(app, version, np, SCALE).protocol(protocol);
                        spec.cfg.page_words = page_words;
                        let r = spec.run();
                        assert!(
                            checksums_close(&r.checksum, &seq.checksum, 1e-9),
                            "{} {version:?} {protocol} {page_words}-word pages on {np} nodes",
                            app.name()
                        );
                    }
                }
            }
        }
    }
}
