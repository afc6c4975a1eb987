//! Allocation budgets of the HLRC release → home → fetch path, per diff,
//! and of an LRC interval.
//!
//! A diff used to cost about twelve heap allocations on its way from
//! the twin to the home and back out in a page response (a vector per
//! run, an `Arc` around the diff, a cloned range list per served page,
//! per-page watermark vectors, two page clones per home construction).
//! With the diff as one shared buffer and the per-page containers gone
//! it costs about three. This test keeps it from creeping back: it runs
//! Jacobi SPF under HLRC for `k` and `2k` iterations on the sequential
//! engine under a counting allocator and bounds the *extra* allocations
//! per *extra* diff created, which cancels everything a run allocates
//! once (stacks, frames, tables, the reference arrays).
//!
//! Under LRC the same pair of runs bounds the extra allocations per
//! extra *interval* created. Every node integrates every interval, and
//! a write notice used to be a `push` onto a per-page, per-writer list:
//! an interval cost each of the other seven nodes a share of those
//! lists' growth on top of its decode. With notices as watermarks in a
//! dense table an interval allocates only what carries it (its page
//! list and `Arc` per receiver, the messages around it) and the diffs
//! its boundary pages are asked for.
//!
//! One test per binary: the counter is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use apps::jacobi::{self, Params};
use apps::Version;
use sp2sim::EngineKind;
use treadmarks::TmkConfig;

/// Allocation calls so far (`realloc` counts as one).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counter is a side
// effect that never touches the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocation budget per diff created (measured: about 3; with
/// per-writer notice lists: about 4.5; before the flat diff and the
/// dense page table: about 12).
const ALLOCS_PER_DIFF: f64 = 4.5;

/// Allocation budget per interval created under LRC (measured: about
/// 49; with per-writer notice lists: about 134).
const ALLOCS_PER_INTERVAL: f64 = 65.0;

/// `(allocations, diffs created, intervals created)` of one 8-node
/// Jacobi SPF run on a 512 x 512 grid (one page per column, so every
/// node's block has boundary pages its neighbours fetch every
/// iteration).
fn jacobi_spf(iters: usize, cfg: TmkConfig) -> (u64, u64, u64) {
    let before = ALLOCS.load(Relaxed);
    let r = jacobi::run_params_on(
        EngineKind::Sequential,
        Version::Spf,
        8,
        0.25,
        Params { n: 512, iters },
        cfg,
    );
    (
        ALLOCS.load(Relaxed) - before,
        r.dsm.diffs_created,
        r.dsm.intervals_created,
    )
}

#[test]
fn release_paths_stay_within_their_allocation_budgets() {
    // Warm-up: one-time allocations (the fiber stacks this thread
    // parks, lazily initialized statics) land outside the measurement.
    jacobi_spf(2, TmkConfig::hlrc());
    let k = 6;
    let (allocs_k, diffs_k, _) = jacobi_spf(k, TmkConfig::hlrc());
    let (allocs_2k, diffs_2k, _) = jacobi_spf(2 * k, TmkConfig::hlrc());
    let diffs = diffs_2k - diffs_k;
    assert!(
        diffs > 1000,
        "the longer run creates more diffs ({diffs_k} -> {diffs_2k})"
    );
    let per_diff = (allocs_2k - allocs_k) as f64 / diffs as f64;
    eprintln!(
        "allocations: {allocs_k} for {k} iterations, {allocs_2k} for {}; \
         diffs created: {diffs_k}, {diffs_2k}; {per_diff:.2} allocations per extra diff",
        2 * k
    );
    assert!(
        per_diff <= ALLOCS_PER_DIFF,
        "{per_diff:.2} allocations per diff created exceed the budget of {ALLOCS_PER_DIFF}"
    );

    let (allocs_k, _, intervals_k) = jacobi_spf(k, TmkConfig::default());
    let (allocs_2k, _, intervals_2k) = jacobi_spf(2 * k, TmkConfig::default());
    let intervals = intervals_2k - intervals_k;
    assert!(
        intervals >= 8 * k as u64,
        "the longer run creates more intervals ({intervals_k} -> {intervals_2k})"
    );
    let per_interval = (allocs_2k - allocs_k) as f64 / intervals as f64;
    eprintln!(
        "LRC allocations: {allocs_k} for {k} iterations, {allocs_2k} for {}; intervals \
         created: {intervals_k}, {intervals_2k}; {per_interval:.2} allocations per extra interval",
        2 * k
    );
    assert!(
        per_interval <= ALLOCS_PER_INTERVAL,
        "{per_interval:.2} allocations per interval created exceed the budget of \
         {ALLOCS_PER_INTERVAL}"
    );
}
