//! Allocation budget of the HLRC release → home → fetch path.
//!
//! A diff used to cost about twelve heap allocations on its way from
//! the twin to the home and back out in a page response (a vector per
//! run, an `Arc` around the diff, a cloned range list per served page,
//! per-page watermark vectors, two page clones per home construction).
//! With the diff as one shared buffer and the per-page containers gone
//! it costs about five. This test keeps it from creeping back: it runs
//! Jacobi SPF under HLRC for `k` and `2k` iterations on the sequential
//! engine under a counting allocator and bounds the *extra* allocations
//! per *extra* diff created, which cancels everything a run allocates
//! once (stacks, frames, tables, the reference arrays).
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

/// Allocation budget per diff created (measured: about 5; before the
/// flat diff and the dense page table: about 12).
const ALLOCS_PER_DIFF: f64 = 7.0;

/// `(allocations, diffs created)` of one 8-node Jacobi SPF HLRC run on a
/// 512 x 512 grid (one page per column, so every node's block has
/// boundary pages its neighbours fetch every iteration).
fn jacobi_hlrc(iters: usize) -> (u64, u64) {
    let before = ALLOCS.load(Relaxed);
    let r = jacobi::run_params_on(
        EngineKind::Sequential,
        Version::Spf,
        8,
        0.25,
        Params { n: 512, iters },
        TmkConfig::hlrc(),
    );
    (ALLOCS.load(Relaxed) - before, r.dsm.diffs_created)
}

#[test]
fn hlrc_release_path_stays_within_its_allocation_budget() {
    // Warm-up: one-time allocations (the fiber stacks this thread
    // parks, lazily initialized statics) land outside the measurement.
    jacobi_hlrc(2);
    let k = 6;
    let (allocs_k, diffs_k) = jacobi_hlrc(k);
    let (allocs_2k, diffs_2k) = jacobi_hlrc(2 * k);
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
}
