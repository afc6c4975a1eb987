//! The counting allocator: memory metrics taken from outside the
//! program under test. A thin wrapper around [`System`] that keeps four
//! process-wide counters; the benchmark reads them around each pass.
//!
//! The counters publish no other data (they are statistics), so every
//! access is `Relaxed`. The benchmark drives the simulator on one OS
//! thread, which is what makes the per-pass deltas exactly repeatable.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Bytes requested so far (monotone; a `realloc` counts its new size).
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Allocation calls so far (monotone; `realloc` counts as one).
static COUNT: AtomicU64 = AtomicU64::new(0);
/// Bytes currently live.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE`] since the last [`reset_peak`].
static PEAK: AtomicU64 = AtomicU64::new(0);

pub struct Counting;

fn grew(requested: usize, live_delta: usize) {
    BYTES.fetch_add(requested as u64, Relaxed);
    COUNT.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(live_delta as u64, Relaxed) + live_delta as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments and returns its result unchanged; the counters are side
// effects that never touch the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size(), layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size(), layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size, new_size - layout.size());
            } else {
                BYTES.fetch_add(new_size as u64, Relaxed);
                COUNT.fetch_add(1, Relaxed);
                LIVE.fetch_sub((layout.size() - new_size) as u64, Relaxed);
            }
        }
        p
    }
}

/// The counters at one instant.
#[derive(Clone, Copy, Debug)]
pub struct Snapshot {
    pub bytes: u64,
    pub count: u64,
    pub live: u64,
    pub peak: u64,
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        bytes: BYTES.load(Relaxed),
        count: COUNT.load(Relaxed),
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Start a new high-water measurement at the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Serialises the tests that depend on [`reset_peak`] not being called
/// from another test thread in the middle of them.
#[cfg(test)]
pub static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests allocate concurrently on their own threads, so these
    // assert only what stays true under that: totals never decrease, a
    // block far larger than anything the other tests hold shows up in
    // the high-water mark, and a reset forgets it.
    const BIG: usize = 256 << 20;

    #[test]
    fn totals_are_monotone_and_count_requests() {
        let a = snapshot();
        let v = vec![1u8; 1 << 20];
        let b = snapshot();
        drop(std::hint::black_box(v));
        let c = snapshot();
        assert!(b.bytes >= a.bytes + (1 << 20));
        assert!(b.count > a.count);
        assert!(c.bytes >= b.bytes && c.count >= b.count);
    }

    #[test]
    fn high_water_survives_the_free_and_resets_per_pass() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset_peak();
        let v: Vec<u8> = Vec::with_capacity(BIG);
        let held = snapshot();
        drop(std::hint::black_box(v));
        let freed = snapshot();
        assert!(held.live >= BIG as u64);
        assert!(freed.live < BIG as u64);
        assert!(freed.peak >= BIG as u64, "peak outlives the block");
        reset_peak();
        assert!(snapshot().peak < BIG as u64, "reset forgets the old peak");
    }
}
